// Command perfbench is the repository's end-to-end benchmark. It runs one
// named closed-loop workload from a seed, checks every operation's output,
// and prints each end-to-end metric by name with its unit; a traced run
// (--trace 1) prints the per-layer ledger instead. See README.md in this
// directory for the workloads and the layer-to-metric table.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":..,"unit":"ms"},..}}
//
// A failed output check prints the result with "correct":false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0; README.md names the workload each metric belongs to.
var perLayer = []metricDef{
	{"service.decode_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.cache_hit_share", "ratio"},
	{"service.unattributed_ms", "ms"},
	{"udg.gen_ms", "ms"},
	{"udg.gen_attempts", "count"},
	{"udg.build_ms", "ms"},
	{"algo.centralized_ms", "ms"},
	{"wcds.election_ms", "ms"},
	{"wcds.levels_ms", "ms"},
	{"wcds.mis_ms", "ms"},
	{"wcds.recruit_ms", "ms"},
	{"simnet.messages_per_op", "count"},
	{"simnet.deliveries_per_op", "count"},
	{"simnet.rounds_per_op", "count"},
	{"reliable.retransmit_share", "ratio"},
	{"spanner.dilation_ms", "ms"},
	{"route.broadcast_ms", "ms"},
	{"batch.engine_ms", "ms"},
	{"fleet.tax_ms", "ms"},
	{"fleet.row_bytes", "B"},
	{"maintain.apply_ms", "ms"},
	{"maintain.rebuild_ms", "ms"},
	{"maintain.repair_ms", "ms"},
	{"maintain.connectors_ms", "ms"},
	{"maintain.nodes_touched", "count"},
	{"maintain.escalation_share", "ratio"},
	{"session.stream_ms", "ms"},
	{"simnet.event_ms", "ms"},
	{"mis.verify_ms", "ms"},
	{"runtime.alloc_bytes_per_node", "B"},
	{"runtime.mallocs_per_node", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_share", "ratio"},
}

// workload is one closed-loop traffic shape.
type workload struct {
	name string
	// clients is the number of closed-loop clients (at most nproc).
	clients int
	// tail is the pinned tail percentile, chosen by the minBeyond rule
	// for the workload's op count at its run length.
	tail float64
	// prefix is the number of ops per client whose exact counts the
	// traced run reports; a traced run always completes them.
	prefix int
	// setups is how many times an untraced run sets up (setup_s is the
	// median); the last instance serves the measured loop.
	setups int
	// prepare builds the seed-pinned inputs every instance shares. That is
	// the benchmark's own work, so it runs once and untimed; it returns
	// the set-up, which builds one instance (traced instances may keep
	// mirrors the replays need).
	prepare func(seed int64) (setupFunc, error)
}

type setupFunc func(traced bool) (env, error)

// noInputs is prepare for a workload whose set-up needs no shared inputs.
func noInputs(setup func(seed int64, traced bool) (env, error)) func(int64) (setupFunc, error) {
	return func(seed int64) (setupFunc, error) {
		return func(traced bool) (env, error) { return setup(seed, traced) }, nil
	}
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

// env is one set-up instance of a workload.
type env interface {
	// do runs op i of client c: untimed preparation, the timed call (whose
	// duration it returns) and untimed output checks. A traced op (t !=
	// nil) additionally records spans and counters on t.
	do(c, i int, t *opTrace) (opResult, error)
	// verify runs the output checks deferred until after the loop.
	verify() error
	close()
}

// opResult is one op's timed latency and the nodes it processed.
type opResult struct {
	lat   time.Duration
	nodes int
}

// opTrace is the traced context of one op.
type opTrace struct {
	tr   *tracer
	root int   // the op's root span
	op   int64 // op id shared by all its spans
	// counts are exact per-op counters (reported as prefix means).
	counts map[string]float64
	// layers are per-layer times that are not ledger rows (derived
	// differences, or work summed over parallel workers).
	layers map[string]time.Duration
}

// badOutput marks an op whose output failed a correctness check.
type badOutput struct{ msg string }

func (e *badOutput) Error() string { return "output check failed: " + e.msg }

func failCheck(format string, args ...any) error {
	return &badOutput{msg: fmt.Sprintf(format, args...)}
}

// loopStats is what one measured loop produced.
type loopStats struct {
	lat               []float64 // ms, successful ops only
	attempted, failed int
	badOutputs        []string
	wall              time.Duration
	cpu               time.Duration
	alloc, mallocs    uint64
	gcShare           float64
	peakRSS           float64 // MB
	nodes             int
	// traced only
	spans     []span
	counts    map[string]float64
	prefixOps int
	layers    map[string]time.Duration
	tracedOps int
}

func (s *loopStats) ok() int { return s.attempted - s.failed }

// loop drives the env's clients in a closed loop for the given duration.
// A traced loop also runs until every client has completed its prefix.
func loop(e env, w workload, dur time.Duration, traced bool) loopStats {
	var (
		mu  sync.Mutex
		st  = loopStats{counts: map[string]float64{}, layers: map[string]time.Duration{}}
		tr  *tracer
		wg  sync.WaitGroup
		cpu = cpuTime()
	)
	if traced {
		tr = &tracer{}
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPU()
	rss := startRSSSampler()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var client int
			if tr != nil {
				client = tr.open("client", 0, -1)
				defer tr.close(client)
			}
			for i := 0; ; i++ {
				if time.Now().After(deadline) && (tr == nil || i >= w.prefix) {
					return
				}
				var t *opTrace
				if tr != nil {
					id := int64(c)<<32 | int64(i)
					t = &opTrace{tr: tr, op: id, root: tr.open("op", client, id),
						counts: map[string]float64{}, layers: map[string]time.Duration{}}
				}
				res, err := e.do(c, i, t)
				if t != nil {
					tr.close(t.root)
				}
				mu.Lock()
				st.attempted++
				st.nodes += res.nodes
				if err != nil {
					st.failed++
					var bad *badOutput
					if errors.As(err, &bad) {
						st.badOutputs = append(st.badOutputs, fmt.Sprintf("client %d op %d: %v", c, i, err))
					} else {
						fmt.Fprintf(os.Stderr, "perfbench: client %d op %d failed: %v\n", c, i, err)
					}
				} else {
					st.lat = append(st.lat, ms(res.lat))
				}
				if t != nil {
					st.tracedOps++
					for k, d := range t.layers {
						st.layers[k] += d
					}
					if i < w.prefix {
						st.prefixOps++
						for k, v := range t.counts {
							st.counts[k] += v
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.peakRSS = rss.stop()
	st.cpu = cpuTime() - cpu
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	st.alloc, st.mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	if gc1 := gcCPU(); gc1.total > gc0.total {
		st.gcShare = (gc1.gc - gc0.gc) / (gc1.total - gc0.total)
	}
	if tr != nil {
		st.spans = tr.spans
	}
	return st
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the Go runtime's resident memory (memory mapped from
// the OS minus what it has released back) while a loop runs. The process
// high-water mark swings with GC timing on small heaps, so the reported
// peak is the median over one-second windows of each window's peak.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

const (
	rssEvery  = 20 * time.Millisecond
	rssWindow = time.Second
)

func startRSSSampler() *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var peaks []float64
		peak, windowEnd := residentMB(), time.Now().Add(rssWindow)
		for {
			select {
			case <-r.stopc:
				if len(peaks) == 0 {
					peaks = append(peaks, peak)
				}
				r.done <- median(peaks)
				return
			case now := <-tick.C:
				peak = max(peak, residentMB())
				if now.After(windowEnd) {
					peaks = append(peaks, peak)
					peak, windowEnd = residentMB(), now.Add(rssWindow)
				}
			}
		}
	}()
	return r
}

// stop ends sampling and returns the median window peak in MB.
func (r *rssSampler) stop() float64 {
	close(r.stopc)
	return <-r.done
}

func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return gcSample{}
	}
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve, sweep-fleet, session-churn or scale")
		seed    = flag.Int64("seed", 1, "seed the operation sequence is generated from")
		seconds = flag.Float64("seconds", 15, "measured duration of the run")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (one of %v), --seconds > 0, --trace 0|1\n", names())
		os.Exit(2)
	}
	var (
		res result
		err error
	)
	dur := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur)
	} else {
		res, err = runMeasured(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runMeasured is the untraced run: set up several times, measure the
// closed loop on the last instance, check outputs, report end-to-end
// metrics.
func runMeasured(w workload, seed int64, dur time.Duration) (result, error) {
	setup, err := w.prepare(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	var (
		setups []float64
		e      env
	)
	for k := 0; k < w.setups; k++ {
		// A program starts with an empty heap: collect the previous
		// instance's garbage so this set-up pays only for its own.
		runtime.GC()
		t0 := time.Now()
		inst, err := setup(false)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < w.setups-1 {
			inst.close()
		} else {
			e = inst
		}
	}
	st := loop(e, w, dur, false)
	verr := e.verify()
	e.close()

	fmt.Printf("workload %s seed %d: %d clients, %d ops (%d failed) in %.2f s\n",
		w.name, seed, w.clients, st.attempted, st.failed, st.wall.Seconds())
	lat := append([]float64(nil), st.lat...)
	p50 := median(lat)
	tail := percentile(lat, w.tail)
	fmt.Printf("setup_s        %.4f s   (median of %d set-ups: %v)\n", median(setups), len(setups), fmtList(setups))
	fmt.Printf("p50_ms         %.3f ms  (%d samples)\n", p50, len(lat))
	fmt.Printf("tail_ms        %.3f ms  (p%g over %d samples, %d beyond; highest percentile the rule allows: p%g)\n",
		tail, w.tail, len(lat), beyond(len(lat), w.tail), highestTail(len(lat)))
	if beyond(len(lat), w.tail) < minBeyond {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d samples beyond p%g\n", beyond(len(lat), w.tail), w.tail)
	}
	ok := float64(max(st.ok(), 1))
	res := result{
		Correct:   len(st.badOutputs) == 0 && verr == nil,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metricValue{
			"setup_s":       {median(setups), "s"},
			"ops_per_s":     {float64(st.ok()) / st.wall.Seconds(), "1/s"},
			"p50_ms":        {p50, "ms"},
			"tail_ms":       {tail, "ms"},
			"cpu_ms_per_op": {ms(st.cpu) / ok, "ms"},
			"peak_rss_mb":   {st.peakRSS, "MB"},
		},
	}
	fmt.Printf("ops_per_s      %.3f 1/s\ncpu_ms_per_op  %.3f ms\npeak_rss_mb    %.1f MB\n",
		res.Metrics["ops_per_s"].Value, res.Metrics["cpu_ms_per_op"].Value, res.Metrics["peak_rss_mb"].Value)
	reportChecks(st, verr)
	return res, nil
}

// runTraced is the traced run: a traced segment on a fresh instance (so
// the pinned prefix starts from the same state every time), then an
// untraced segment on another fresh instance for runtime figures and the
// tracing-overhead reference.
func runTraced(w workload, seed int64, dur time.Duration) (result, error) {
	setup, err := w.prepare(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	traced, err := setup(true)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", w.name, err)
	}
	tst := loop(traced, w, dur/2, true)
	verr := traced.verify()
	traced.close()
	if verr == nil && tst.prefixOps != w.clients*w.prefix {
		verr = fmt.Errorf("traced prefix incomplete: %d of %d ops", tst.prefixOps, w.clients*w.prefix)
	}

	plain, err := setup(false)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", w.name, err)
	}
	ust := loop(plain, w, dur/2, false)
	if err := plain.verify(); err != nil && verr == nil {
		verr = err
	}
	plain.close()

	l := newLedger(tst.spans)
	fmt.Printf("workload %s seed %d (traced): %d traced ops, %d untraced ops\n", w.name, seed, tst.attempted, ust.attempted)
	l.print(os.Stdout, tst.tracedOps)

	ops := float64(max(tst.tracedOps, 1))
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.name] = metricValue{0, d.unit}
	}
	set := func(name string, v float64) {
		if d, ok := m[name]; ok {
			d.Value = v
			m[name] = d
		}
	}
	for name, d := range l.rows {
		set(name+"_ms", ms(d)/ops)
	}
	for name, d := range tst.layers {
		set(name, ms(d)/ops)
	}
	prefix := float64(max(tst.prefixOps, 1))
	for name, v := range tst.counts {
		set(name, v/prefix)
	}
	ratios(tst.counts, set)

	uok := float64(max(ust.ok(), 1))
	set("runtime.alloc_mb_per_op", float64(ust.alloc)/(1<<20)/uok)
	set("runtime.gc_cpu_share", ust.gcShare)
	if ust.nodes > 0 {
		set("runtime.alloc_bytes_per_node", float64(ust.alloc)/float64(ust.nodes))
		set("runtime.mallocs_per_node", float64(ust.mallocs)/float64(ust.nodes))
	}
	// The overhead compares the timed public call alone: a traced op also
	// runs the layer replays, which are not part of its call latency.
	tl, ul := append([]float64(nil), tst.lat...), append([]float64(nil), ust.lat...)
	overhead := median(tl)/median(ul) - 1
	if !math.IsNaN(overhead) && !math.IsInf(overhead, 0) {
		set("trace.overhead_share", overhead)
	}
	fmt.Printf("tracing overhead: call p50 %.3f ms traced vs %.3f ms untraced (%+.1f%%)\n",
		median(tl), median(ul), 100*overhead)

	for _, d := range perLayer {
		fmt.Printf("layer  %-30s %14.6f %s\n", d.name, m[d.name].Value, d.unit)
	}
	st := tst
	st.badOutputs = append(st.badOutputs, ust.badOutputs...)
	reportChecks(st, verr)
	return result{
		Correct:   len(st.badOutputs) == 0 && verr == nil,
		Attempted: tst.attempted + ust.attempted,
		Failed:    tst.failed + ust.failed,
		Metrics:   m,
	}, nil
}

// ratios turns paired prefix counters into the share metrics: a share is
// reported over its own base, not per op.
func ratios(c map[string]float64, set func(string, float64)) {
	share := func(name, num, den string) {
		if c[den] > 0 {
			set(name, c[num]/c[den])
		}
	}
	share("service.cache_hit_share", "cache.hits", "cache.lookups")
	share("udg.gen_attempts", "udg.attempts", "udg.scenes")
	share("reliable.retransmit_share", "reliable.retransmits", "reliable.messages")
	share("maintain.escalation_share", "maintain.escalated", "maintain.lossy_epochs")
}

// reportChecks prints the output-check summary to standard error.
func reportChecks(st loopStats, verr error) {
	for i, msg := range st.badOutputs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed checks\n", len(st.badOutputs)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", verr)
	}
	if len(st.badOutputs) == 0 && verr == nil {
		fmt.Println("checks: every operation's output verified")
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}
