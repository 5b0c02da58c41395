// Command perfbench is Lattice's benchmark: it drives four named
// workloads through the public APIs of core, portal, phylo and beagle,
// prints end-to-end metrics with their units, checks that the outputs
// are correct, and in a separate traced run reports per-layer metrics
// from spans, counters and a CPU profile it starts itself. See
// README.md for the workloads, the metrics and the layer map.
//
//	perfbench --workload portal-flood --seed 1 --seconds 20 --trace 0
//	perfbench --compare old.jsonl new.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// workloadDef is one named workload: its inputs are a pure function of
// the seed.
type workloadDef struct {
	name  string
	build func(seed int64) (instance, error)
}

var workloads = []workloadDef{
	{"portal-flood", newFlood},
	{"federation-durable", newFederation},
	{"portal-spike", newSpike},
	{"garli-search", newGarli},
}

// instance is one seeded workload. The harness calls setup, run,
// collect and teardown in order for every iteration; the instance
// holds the live deployment between the calls. Everything runs on one
// goroutine.
type instance interface {
	setup(it *iteration) error
	run(it *iteration) error
	collect(it *iteration) error
	teardown() error
}

// check is one correctness check; a failed check counts as a failed
// operation.
type check struct {
	name   string
	ok     bool
	detail string
}

// iteration is one setup+run of a workload and everything measured
// about it.
type iteration struct {
	index int
	tr    *tracer // nil when untraced
	dir   string  // scratch directory, removed after the iteration

	setupM, runM meter
	retained     float64 // live heap bytes after the run

	// laps are the wall times of the run's successive segments (pump
	// steps, arrivals, searches), the same segments in every
	// iteration of one seed; see robustRunTime.
	laps     []float64
	lapStart time.Time

	e2e    map[string]float64 // workload-specific end-to-end metrics
	tails  map[string]timing  // percentile and count behind *_tail_* metrics
	layer  map[string]float64 // per-layer metrics
	digest string             // journal digest, or lnL and cells for the search
	checks []check
	ops    int // operations offered (submissions, searches)
	failed int // operations that did not reach exactly one terminal
}

// lap closes the current run segment.
func (it *iteration) lap() {
	now := time.Now()
	it.laps = append(it.laps, now.Sub(it.lapStart).Seconds())
	it.lapStart = now
}

// resumeLaps starts a new segment after a pause that belongs to no
// segment (a recovery probe).
func (it *iteration) resumeLaps() { it.lapStart = time.Now() }

func (it *iteration) check(name string, ok bool, format string, args ...any) {
	it.checks = append(it.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// setup_s is the median of at least minSetups deployments, and of
// more until they add up to minSetupTime (at most maxSetups).
const (
	minSetups    = 5
	maxSetups    = 400
	minSetupTime = time.Second
)

// minIterations gives every untraced run same-seed twins for the
// digest check and three samples of each run segment for
// robustRunTime.
const minIterations = 3

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measurement budget in wall seconds")
		traceOn = flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
		out     = flag.String("out", "", "append a JSON record of this run to this file")
		work    = flag.String("workdir", ".bench_build/perfbench", "scratch and trace output directory")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two result files")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	res, err := runWorkload(def, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.appendRecord(*out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := res.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// result is one benchmark run, ready to print.
type result struct {
	workload          string
	seed              int64
	traced            bool
	iters             int
	runWalls          []float64 // whole-run wall seconds per iteration, in order
	metrics           map[string]float64
	units             map[string]string
	tails             map[string]timing
	checks            []check
	attempted, failed int
	// otherShare is the traced run's share of profiled CPU in neither a
	// repository module nor GC.
	otherShare float64
}

// runWorkload builds the seeded instance and measures it for budget.
func runWorkload(def *workloadDef, seed int64, budget time.Duration, traced bool, work string) (*result, error) {
	inst, err := def.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: building inputs: %w", def.name, err)
	}
	scratch := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	//lint:allow errdrop -- scratch WAL copies; the results are already collected
	defer os.RemoveAll(scratch)

	res := &result{
		workload: def.name, seed: seed, traced: traced,
		metrics: map[string]float64{}, units: map[string]string{}, tails: map[string]timing{},
	}
	start := time.Now()
	var untraced, tracedIts []*iteration
	var profile bytes.Buffer
	for i := 0; ; i++ {
		useTrace := traced && i > 0 // a traced run first measures one untraced baseline
		if useTrace && len(tracedIts) == 0 {
			if err := pprof.StartCPUProfile(&profile); err != nil {
				return nil, fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		it, err := runIteration(inst, i, useTrace, scratch)
		if err != nil {
			if useTrace {
				pprof.StopCPUProfile()
			}
			return nil, fmt.Errorf("%s iteration %d: %w", def.name, i, err)
		}
		if useTrace {
			tracedIts = append(tracedIts, it)
		} else {
			untraced = append(untraced, it)
		}
		enough := len(untraced) >= minIterations
		if traced {
			enough = len(tracedIts) >= 1
		}
		if enough && time.Since(start) >= budget {
			break
		}
	}
	if traced {
		pprof.StopCPUProfile()
	}
	all := append(append([]*iteration(nil), untraced...), tracedIts...)

	// Correctness: every iteration's own checks, and one journal
	// digest (or lnL and cell count) across same-seed iterations,
	// traced or not — the traced ones prove the wrappers transparent.
	for _, it := range all {
		res.checks = append(res.checks, it.checks...)
		res.attempted += it.ops
		res.failed += it.failed
	}
	for _, it := range all[1:] {
		name := "same-seed digest"
		if it.tr != nil {
			name = "traced run reproduces untraced digest"
		}
		res.checks = append(res.checks, check{name, it.digest == all[0].digest,
			fmt.Sprintf("iteration %d %s vs %s", it.index, short(it.digest), short(all[0].digest))})
	}
	for _, c := range res.checks {
		res.attempted++
		if !c.ok {
			res.failed++
		}
	}

	if traced {
		if err := res.layerMetrics(untraced, tracedIts, profile.Bytes()); err != nil {
			return nil, err
		}
		if err := tracedIts[0].tr.writeSpans(filepath.Join(work, fmt.Sprintf("%s-seed%d.spans.json", def.name, seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		if err := os.WriteFile(filepath.Join(work, fmt.Sprintf("%s-seed%d.pprof", def.name, seed)), profile.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("writing profile: %w", err)
		}
		res.iters = len(tracedIts)
		return res, nil
	}

	// Extra deployments until setup_s is the median of at least
	// minSetups samples covering at least minSetupTime, so a setup of
	// a millisecond is still measured hundreds of times.
	setups := make([]float64, 0, minSetups)
	var setupTotal float64
	for _, it := range untraced {
		setups = append(setups, it.setupM.wall.Seconds())
		setupTotal += it.setupM.wall.Seconds()
	}
	for len(setups) < minSetups || (setupTotal < minSetupTime.Seconds() && len(setups) < maxSetups) {
		it := &iteration{index: -1, dir: filepath.Join(scratch, fmt.Sprintf("setup-%d", len(setups)))}
		runtime.GC()
		it.setupM.start()
		err := inst.setup(it)
		it.setupM.stop()
		if err != nil {
			return nil, fmt.Errorf("%s extra setup: %w", def.name, err)
		}
		if err := inst.teardown(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(it.dir); err != nil {
			return nil, err
		}
		setups = append(setups, it.setupM.wall.Seconds())
		setupTotal += it.setupM.wall.Seconds()
	}
	res.iters = len(untraced)
	for _, it := range untraced {
		res.runWalls = append(res.runWalls, it.runM.wall.Seconds())
	}
	res.set("setup_s", "s", median(setups))
	res.set("run_s", "s", robustRunTime(untraced))
	res.set("alloc_mb", "MB", medianOf(untraced, func(it *iteration) float64 {
		return float64(it.setupM.stats.allocBytes+it.runM.stats.allocBytes) / 1e6
	}))
	res.set("retained_mb", "MB", medianOf(untraced, func(it *iteration) float64 { return it.retained / 1e6 }))
	for _, m := range workloadEndToEnd {
		if _, ok := untraced[0].e2e[m.name]; !ok {
			continue
		}
		res.set(m.name, m.unit, medianOf(untraced, func(it *iteration) float64 { return it.e2e[m.name] }))
		if t, ok := untraced[0].tails[m.name]; ok {
			res.tails[m.name] = t
		}
	}
	return res, nil
}

// runIteration performs one setup, run, collection and teardown.
func runIteration(inst instance, i int, traced bool, scratch string) (*iteration, error) {
	it := &iteration{
		index: i, dir: filepath.Join(scratch, fmt.Sprintf("it-%d", i)),
		e2e: map[string]float64{}, tails: map[string]timing{}, layer: map[string]float64{},
	}
	if traced {
		it.tr = newTracer(i)
	}
	runtime.GC()
	it.setupM.start()
	err := inst.setup(it)
	it.setupM.stop()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	it.runM.start()
	it.lapStart = time.Now()
	err = inst.run(it)
	it.lap()
	it.runM.stop()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("run: %w", err), inst.teardown())
	}
	it.retained = liveHeapBytes()
	if err := inst.collect(it); err != nil {
		return nil, errors.Join(fmt.Errorf("collect: %w", err), inst.teardown())
	}
	if err := inst.teardown(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return it, os.RemoveAll(it.dir)
}

// layerMetrics fills the traced run's per-layer metrics: medians over
// traced iterations of each workload-reported value, the Go runtime
// counters of setup plus run, CPU seconds per module from the profile
// (per iteration), and the tracing overhead against the untraced
// baseline iteration.
func (r *result) layerMetrics(untraced, traced []*iteration, profile []byte) error {
	for _, m := range perLayer {
		r.units[m.name] = m.unit
		r.metrics[m.name] = medianOf(traced, func(it *iteration) float64 { return it.layer[m.name] })
	}
	gs := func(f func(goStats) float64) float64 {
		return medianOf(traced, func(it *iteration) float64 {
			s := it.setupM.stats
			s.add(it.runM.stats)
			return f(s)
		})
	}
	r.metrics["go.gc_cycles"] = gs(func(s goStats) float64 { return float64(s.gcCycles) })
	r.metrics["go.gc_pause_s"] = gs(func(s goStats) float64 { return s.gcPause })
	r.metrics["go.gc_cpu_s"] = gs(func(s goStats) float64 { return s.gcCPU })
	r.metrics["go.alloc_objects"] = gs(func(s goStats) float64 { return float64(s.allocObjects) })

	samples, err := parseCPUProfile(profile)
	if err != nil {
		return err
	}
	n := float64(len(traced))
	total := 0.0
	for mod, secs := range cpuByModule(samples) {
		total += secs
		name := "cpu." + mod + "_s"
		if _, ok := r.units[name]; !ok {
			name = "cpu.other_s" // a module added after this list was written
		}
		r.metrics[name] += secs / n
	}
	r.metrics["cpu.total_s"] = total / n
	if total > 0 {
		r.otherShare = r.metrics["cpu.other_s"] / r.metrics["cpu.total_s"]
	}

	runS := func(it *iteration) float64 { return it.runM.wall.Seconds() }
	r.metrics["trace.untraced_run_s"] = medianOf(untraced, runS)
	r.metrics["trace.traced_run_s"] = medianOf(traced, runS)
	r.metrics["trace.overhead_s"] = r.metrics["trace.traced_run_s"] - r.metrics["trace.untraced_run_s"]
	return nil
}

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = v
	r.units[name] = unit
}

// robustRunTime is the run's wall time as the sum, over its segments,
// of each segment's median across iterations. Every iteration of a
// seed runs the same segments, so a burst of interference from
// outside the process (CPU steal on a shared host) slows one copy of
// a few segments and is filtered out, where a median of whole-run
// times would need the burst to miss most iterations. Without at
// least three iterations with matching segments it falls back to the
// median whole-run time.
func robustRunTime(its []*iteration) float64 {
	runS := func(it *iteration) float64 { return it.runM.wall.Seconds() }
	if len(its) < 3 {
		return medianOf(its, runS)
	}
	n := len(its[0].laps)
	for _, it := range its {
		if len(it.laps) != n {
			return medianOf(its, runS)
		}
	}
	total := 0.0
	col := make([]float64, len(its))
	for k := 0; k < n; k++ {
		for i, it := range its {
			col[i] = it.laps[k]
		}
		total += median(col)
	}
	return total
}

func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	v := make([]float64, len(its))
	for i, it := range its {
		v[i] = f(it)
	}
	return median(v)
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

func (r *result) correct() bool { return r.failed == 0 }

// print writes the human-readable report: every metric with its unit,
// tails with their percentile and sample count, and every check.
func (r *result) print(w *os.File) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d %s iterations=%d\n", r.workload, r.seed, mode, r.iters)
	if len(r.runWalls) > 0 {
		fmt.Fprintf(w, "  whole-run wall seconds per iteration: %.4g\n", r.runWalls)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	order := metricOrder()
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		line := fmt.Sprintf("  %-32s %14.6g %s", n, r.metrics[n], r.units[n])
		if t, ok := r.tails[n]; ok {
			line += fmt.Sprintf("  [p%g of n=%d]", t.TailP, t.N)
		}
		fmt.Fprintln(w, line)
	}
	if r.traced {
		fmt.Fprintf(w, "  tracing overhead: %.4f s (traced run_s %.4f s vs untraced %.4f s)\n",
			r.metrics["trace.overhead_s"], r.metrics["trace.traced_run_s"], r.metrics["trace.untraced_run_s"])
		fmt.Fprintf(w, "  CPU outside any module and GC: %.1f%% of %.3f s profiled per iteration\n",
			100*r.otherShare, r.metrics["cpu.total_s"])
	}
	seen := map[string]int{}
	for _, c := range r.checks {
		if c.ok {
			seen[c.name]++
			continue
		}
		fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.name, c.detail)
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  check ok ×%d: %s\n", seen[k], k)
	}
}

// metricOrder ranks metric names in declaration order for printing.
func metricOrder() map[string]int {
	order := map[string]int{}
	for _, l := range [][]metricDef{endToEnd, workloadEndToEnd, perLayer} {
		for _, m := range l {
			order[m.name] = len(order)
		}
	}
	return order
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly the declared
// end-to-end metrics (untraced) or per-layer metrics (traced).
func (r *result) resultLine() (string, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, m})
	return string(data), err
}

// record is one run as stored for --compare: every metric measured,
// including the workload-specific end-to-end ones.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Traced   bool                   `json:"traced"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func (r *result) appendRecord(path string) error {
	rec := record{Workload: r.workload, Seed: r.seed, Traced: r.traced, Correct: r.correct(),
		Metrics: map[string]metricValue{}}
	for n, v := range r.metrics {
		rec.Metrics[n] = metricValue{Value: v, Unit: r.units[n]}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close() //lint:allow errdrop -- the write error is the one reported
		return err
	}
	return f.Close()
}
