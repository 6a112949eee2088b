package session

import "math/rand"

// RandomEpoch draws one epoch of 1..4 valid deltas against the session's
// current state: mostly moves, some leaves, rejoins and brand-new joins
// near existing nodes. Each delta touches a distinct node, so the epoch
// cannot trip the already-in-requested-state validation. It is the churn
// trace generator of E10's churn rows, the chaos churn sweep and the
// session tests; the draws are a pure function of rng and the session state, so a
// trace replays from its seed.
func RandomEpoch(rng *rand.Rand, s *Session) []Delta {
	m := s.Maintainer()
	nw := m.Network()
	var on, off []int
	for v, a := range m.ActiveMask() {
		if a {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	count := 1 + rng.Intn(4)
	used := map[int]bool{}
	var out []Delta
	for len(out) < count {
		switch k := rng.Intn(10); {
		case k < 6 && len(on) > 0: // move
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			p := nw.Pos[v]
			out = append(out, Delta{Op: OpMove, Node: &v,
				X: p.X + rng.NormFloat64()*0.4, Y: p.Y + rng.NormFloat64()*0.4})
		case k < 8 && len(on) > 1: // leave
			v := on[rng.Intn(len(on))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, Delta{Op: OpLeave, Node: &v})
		case k < 9 && len(off) > 0: // rejoin
			v := off[rng.Intn(len(off))]
			if used[v] {
				continue
			}
			used[v] = true
			out = append(out, Delta{Op: OpJoin, Node: &v})
		default: // brand-new node near an existing one
			anchor := nw.Pos[rng.Intn(nw.N())]
			out = append(out, Delta{Op: OpJoin,
				X: anchor.X + rng.NormFloat64()*0.3, Y: anchor.Y + rng.NormFloat64()*0.3})
		}
	}
	return out
}
