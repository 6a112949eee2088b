package simnet

import (
	"fmt"
	"math/rand"
)

// This file is the kernel's composable fault model. The paper's algorithms
// assume reliable local broadcast; everything here exists to take that
// assumption away in controlled, reproducible ways.
//
// Faults fall into two classes, applied at two different points:
//
//   - Probabilistic link faults (drop, duplicate, delay, reorder) are
//     sampled at SEND time from a per-sender RNG derived deterministically
//     from the plan seed. Because every node's sends happen inside its own
//     handler (Init/Recv/Tick), each RNG is touched by exactly one
//     goroutine — no locks, no cross-schedule contamination: the fate of
//     node v's k-th transmission depends only on (seed, v, k).
//   - Scheduled faults (crash windows, partitions, link downtimes) are
//     evaluated against LOGICAL TIME when a delivery is attempted. Under
//     RunSync logical time is the round number. RunAsync has no rounds, so
//     logical time is the count of deliveries so far plus the count of
//     quiescence tick passes (see Ticker); it is monotone and advances even
//     while the network is silent, which is what lets a crashed node's
//     restart ever be reached.
//
// A delivery from u to v sent at time s and arriving at time t is lost when
// u was crashed at s, or v is crashed at t, or a partition or link window
// blocks the (u, v) pair at t. Crash semantics are fail-silent blackout:
// the node's state survives, but nothing is delivered to it (and therefore
// it sends nothing, since all sending happens inside handlers) for the
// duration of the window. Protocol state is NOT reset on restart.

// CrashWindow takes one node offline for the logical-time interval
// [From, Until). Until <= 0 means the node never restarts.
type CrashWindow struct {
	Node  int `json:"node"`
	From  int `json:"from"`
	Until int `json:"until,omitempty"`
}

func (w CrashWindow) active(t int) bool {
	return t >= w.From && (w.Until <= 0 || t < w.Until)
}

// PartitionWindow splits the network for [From, Until): while active, every
// delivery between a node in Group and a node outside it is lost, in both
// directions. Until <= 0 means the partition never heals. Multiple windows
// compose; a delivery blocked by any window is lost.
type PartitionWindow struct {
	From  int   `json:"from"`
	Until int   `json:"until,omitempty"`
	Group []int `json:"group"`
}

func (w PartitionWindow) active(t int) bool {
	return t >= w.From && (w.Until <= 0 || t < w.Until)
}

// LinkWindow takes the directed link A→B down for [Start, Until); with
// OneWay false the reverse direction is down too. Until <= 0 means forever.
// Asymmetric links are a OneWay window; link flap is a train of short
// windows (see Flap).
type LinkWindow struct {
	A      int  `json:"a"`
	B      int  `json:"b"`
	Start  int  `json:"start"`
	Until  int  `json:"until,omitempty"`
	OneWay bool `json:"oneWay,omitempty"`
}

func (w LinkWindow) blocks(from, to, t int) bool {
	if t < w.Start || (w.Until > 0 && t >= w.Until) {
		return false
	}
	if w.A == from && w.B == to {
		return true
	}
	return !w.OneWay && w.A == to && w.B == from
}

// Flap generates the down-windows of a flapping link: starting at start,
// the link a–b repeats cycles of `up` time up followed by `down` time down,
// until horizon. Use the result in FaultPlan.LinkDowns.
func Flap(a, b, start, up, down, horizon int) []LinkWindow {
	var ws []LinkWindow
	if up < 0 || down <= 0 {
		return ws
	}
	for t := start + up; t < horizon; t += up + down {
		end := t + down
		if end > horizon {
			end = horizon
		}
		ws = append(ws, LinkWindow{A: a, B: b, Start: t, Until: end})
	}
	return ws
}

// FaultPlan is a declarative, serializable description of every fault a run
// injects. It is the exchange format shared by the engine options, the
// chaos harness and the service layer's JSON API. The zero value injects
// nothing. Compile it into engine options with WithFaults, or use the
// fine-grained With* options to build one incrementally.
type FaultPlan struct {
	// Seed derives the per-sender RNG streams for the probabilistic
	// faults. Two runs with equal plans see identical per-sender fault
	// sequences.
	Seed int64 `json:"seed,omitempty"`
	// DropRate loses each per-link delivery independently with this
	// probability.
	DropRate float64 `json:"dropRate,omitempty"`
	// DupRate delivers an extra copy of a per-link delivery with this
	// probability (the copy is delivered later and may be reordered).
	DupRate float64 `json:"dupRate,omitempty"`
	// DelayMin/DelayMax add a uniform extra delay in rounds to each
	// delivery under RunSync (base latency is 1 round). Under RunAsync,
	// where there is no round clock, a delayed message is instead inserted
	// at a random position of the receiver's queue — the asynchronous
	// model already permits unbounded delay, so delay manifests there as
	// reordering.
	DelayMin int `json:"delayMin,omitempty"`
	DelayMax int `json:"delayMax,omitempty"`
	// ReorderRate perturbs delivery order: under RunAsync an affected
	// message is inserted at a random queue position; under RunSync it is
	// delayed by one extra round (the only reordering a round model
	// admits).
	ReorderRate float64 `json:"reorderRate,omitempty"`
	// Crashes, Partitions and LinkDowns are scheduled outages in logical
	// time (see the package comment above for the time base).
	Crashes    []CrashWindow     `json:"crashes,omitempty"`
	Partitions []PartitionWindow `json:"partitions,omitempty"`
	LinkDowns  []LinkWindow      `json:"linkDowns,omitempty"`
}

// Empty reports whether the plan injects no fault at all.
func (p *FaultPlan) Empty() bool {
	return p == nil || (p.DropRate == 0 && p.DupRate == 0 && p.DelayMax == 0 &&
		p.ReorderRate == 0 && len(p.Crashes) == 0 && len(p.Partitions) == 0 && len(p.LinkDowns) == 0)
}

// Validate checks the plan against a network of n nodes.
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	checkRate := func(name string, v float64) error {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("simnet: %s %v outside [0, 1]", name, v)
		}
		return nil
	}
	if err := checkRate("dropRate", p.DropRate); err != nil {
		return err
	}
	if err := checkRate("dupRate", p.DupRate); err != nil {
		return err
	}
	if err := checkRate("reorderRate", p.ReorderRate); err != nil {
		return err
	}
	if p.DelayMin < 0 || p.DelayMax < p.DelayMin {
		return fmt.Errorf("simnet: delay window [%d, %d] invalid", p.DelayMin, p.DelayMax)
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("simnet: crash node %d out of range for %d nodes", c.Node, n)
		}
	}
	for _, w := range p.Partitions {
		if len(w.Group) == 0 {
			return fmt.Errorf("simnet: partition window with empty group")
		}
		for _, v := range w.Group {
			if v < 0 || v >= n {
				return fmt.Errorf("simnet: partition member %d out of range for %d nodes", v, n)
			}
		}
	}
	for _, w := range p.LinkDowns {
		if w.A < 0 || w.A >= n || w.B < 0 || w.B >= n {
			return fmt.Errorf("simnet: link window %d–%d out of range for %d nodes", w.A, w.B, n)
		}
	}
	return nil
}

// --- options ---------------------------------------------------------------

// WithFaults installs a complete fault plan, merging over any fine-grained
// fault options already applied (non-zero plan fields win).
func WithFaults(plan FaultPlan) Option {
	return func(c *config) { c.plan = mergePlans(c.plan, plan) }
}

func mergePlans(base *FaultPlan, over FaultPlan) *FaultPlan {
	if base == nil {
		p := over
		return &p
	}
	if over.Seed != 0 {
		base.Seed = over.Seed
	}
	if over.DropRate != 0 {
		base.DropRate = over.DropRate
	}
	if over.DupRate != 0 {
		base.DupRate = over.DupRate
	}
	if over.DelayMin != 0 {
		base.DelayMin = over.DelayMin
	}
	if over.DelayMax != 0 {
		base.DelayMax = over.DelayMax
	}
	if over.ReorderRate != 0 {
		base.ReorderRate = over.ReorderRate
	}
	base.Crashes = append(base.Crashes, over.Crashes...)
	base.Partitions = append(base.Partitions, over.Partitions...)
	base.LinkDowns = append(base.LinkDowns, over.LinkDowns...)
	return base
}

func (c *config) editPlan(f func(p *FaultPlan)) {
	if c.plan == nil {
		c.plan = &FaultPlan{}
	}
	f(c.plan)
}

// WithDropRate makes each per-link delivery fail independently with
// probability p. The rng seeds the plan's deterministic per-sender fault
// streams (it is drawn from once; it is never shared across goroutines).
// Protocols that assume reliable local broadcast must fail DETECTABLY under
// loss (nodes left undecided) unless wrapped in the reliable layer.
func WithDropRate(rng *rand.Rand, p float64) Option {
	seed := rng.Int63()
	return func(c *config) {
		c.editPlan(func(pl *FaultPlan) {
			pl.Seed = seed
			pl.DropRate = p
		})
	}
}

// WithFaultSeed fixes the seed of the per-sender fault streams.
func WithFaultSeed(seed int64) Option {
	return func(c *config) { c.editPlan(func(pl *FaultPlan) { pl.Seed = seed }) }
}

// WithDuplication delivers a late extra copy of each per-link delivery with
// probability p.
func WithDuplication(p float64) Option {
	return func(c *config) { c.editPlan(func(pl *FaultPlan) { pl.DupRate = p }) }
}

// WithDelay adds a uniform extra latency of [min, max] rounds per delivery
// under RunSync; under RunAsync it manifests as reordering (see FaultPlan).
func WithDelay(min, max int) Option {
	return func(c *config) {
		c.editPlan(func(pl *FaultPlan) {
			pl.DelayMin = min
			pl.DelayMax = max
		})
	}
}

// WithReorder perturbs delivery order with probability p per delivery.
func WithReorder(p float64) Option {
	return func(c *config) { c.editPlan(func(pl *FaultPlan) { pl.ReorderRate = p }) }
}

// WithCrash takes node offline for logical time [from, until); until <= 0
// means no restart. See FaultPlan for the crash semantics.
func WithCrash(node, from, until int) Option {
	return func(c *config) {
		c.editPlan(func(pl *FaultPlan) {
			pl.Crashes = append(pl.Crashes, CrashWindow{Node: node, From: from, Until: until})
		})
	}
}

// WithPartition splits group from the rest of the network for logical time
// [from, until); until <= 0 means the partition never heals.
func WithPartition(from, until int, group []int) Option {
	return func(c *config) {
		c.editPlan(func(pl *FaultPlan) {
			pl.Partitions = append(pl.Partitions, PartitionWindow{From: from, Until: until, Group: group})
		})
	}
}

// WithLinkDown installs one link downtime window.
func WithLinkDown(w LinkWindow) Option {
	return func(c *config) {
		c.editPlan(func(pl *FaultPlan) { pl.LinkDowns = append(pl.LinkDowns, w) })
	}
}

// --- compiled state --------------------------------------------------------

// faultState is the engine-ready compilation of a FaultPlan for an n-node
// run: per-sender RNGs plus indexed window lookups.
type faultState struct {
	plan      FaultPlan
	senderRNG []*rand.Rand
	crashes   [][]CrashWindow // by node
	inGroup   []map[int]bool  // per partition window: membership set
}

// compileFaults builds the faultState; it returns nil for an empty plan so
// the fault-free hot path stays a single nil check.
func compileFaults(plan *FaultPlan, n int) (*faultState, error) {
	if plan.Empty() {
		return nil, nil
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	f := &faultState{plan: *plan, crashes: make([][]CrashWindow, n)}
	if plan.DropRate > 0 || plan.DupRate > 0 || plan.DelayMax > 0 || plan.ReorderRate > 0 {
		f.senderRNG = make([]*rand.Rand, n)
		for i := range f.senderRNG {
			f.senderRNG[i] = rand.New(rand.NewSource(splitmix64(plan.Seed, uint64(i))))
		}
	}
	for _, c := range plan.Crashes {
		f.crashes[c.Node] = append(f.crashes[c.Node], c)
	}
	f.inGroup = make([]map[int]bool, len(plan.Partitions))
	for i, w := range plan.Partitions {
		f.inGroup[i] = make(map[int]bool, len(w.Group))
		for _, v := range w.Group {
			f.inGroup[i][v] = true
		}
	}
	return f, nil
}

// splitmix64 mixes a base seed with a stream index into an independent
// per-sender seed (Steele et al.'s SplitMix64 finalizer).
func splitmix64(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// The sample functions consume the sender's RNG only when the corresponding
// fault is enabled, so enabling one fault never shifts another's stream
// position relative to a run where it was the only fault... within a single
// fault class. (Across classes the draws interleave per send; determinism
// is per full plan, which is the reproducibility contract.)

func (f *faultState) dropSample(from int) bool {
	return f.plan.DropRate > 0 && f.senderRNG[from].Float64() < f.plan.DropRate
}

func (f *faultState) dupSample(from int) bool {
	return f.plan.DupRate > 0 && f.senderRNG[from].Float64() < f.plan.DupRate
}

// delaySample draws the extra delivery latency in rounds.
func (f *faultState) delaySample(from int) int {
	if f.plan.DelayMax <= 0 {
		return 0
	}
	span := f.plan.DelayMax - f.plan.DelayMin + 1
	if span <= 0 {
		// [0, MaxInt]: the window's width overflows int.
		return int(uint(f.senderRNG[from].Uint64()) >> 1)
	}
	return f.plan.DelayMin + f.senderRNG[from].Intn(span)
}

func (f *faultState) reorderSample(from int) bool {
	return f.plan.ReorderRate > 0 && f.senderRNG[from].Float64() < f.plan.ReorderRate
}

// crashState reports whether node is down at logical time t, and whether
// any of its crash windows ends after t (i.e. a restart or a future crash
// still lies ahead, so the engine must keep logical time advancing).
func (f *faultState) crashState(node, t int) (down, eventAhead bool) {
	for _, w := range f.crashes[node] {
		if w.active(t) {
			down = true
			if w.Until > 0 {
				eventAhead = true
			}
		} else if t < w.From {
			eventAhead = true
		}
	}
	return down, eventAhead
}

func (f *faultState) crashed(node, t int) bool {
	down, _ := f.crashState(node, t)
	return down
}

// blocked decides whether a delivery from→to, sent at sentAt and arriving
// at t, is lost to a scheduled fault.
func (f *faultState) blocked(from, to, sentAt, t int) bool {
	if f.crashed(from, sentAt) || f.crashed(to, t) {
		return true
	}
	for i, w := range f.plan.Partitions {
		if w.active(t) && f.inGroup[i][from] != f.inGroup[i][to] {
			return true
		}
	}
	for _, w := range f.plan.LinkDowns {
		if w.blocks(from, to, t) {
			return true
		}
	}
	return false
}
