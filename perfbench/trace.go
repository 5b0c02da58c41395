package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"lattice/internal/lrm"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// maxKeptSpans bounds the spans held in memory per traced iteration;
// past it spans still feed the per-name aggregates but are not kept
// for the written trace.
const maxKeptSpans = 20000

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function or seam.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the kept spans; -1 for a root or an unkept parent
	Run    int    `json:"run"`
}

// spanAgg is the per-name aggregate: calls, total time, and self time
// (total minus the part covered by child spans).
type spanAgg struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

type openSpan struct {
	name     string
	start    time.Time
	kept     int
	children time.Duration
}

// tracer records spans for one traced iteration. It belongs to the
// single goroutine that drives the workload; wrappers called from
// simulation callbacks run on that goroutine too. A nil *tracer is a
// no-op, so untraced iterations carry no tracing cost beyond a nil
// check.
type tracer struct {
	t0      time.Time
	run     int
	spans   []span
	dropped int
	stack   []openSpan
	agg     map[string]*spanAgg
}

func newTracer(run int) *tracer {
	return &tracer{t0: time.Now(), run: run, agg: map[string]*spanAgg{}}
}

// begin opens a span; every begin is closed by end in LIFO order.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{name: name, start: time.Now(), kept: -1})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(top.start)
	a := t.agg[top.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[top.name] = a
	}
	a.Calls++
	a.Total += d
	a.Self += d - top.children
	parent := -1
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.children += d
		parent = p.kept
	}
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{
			Name: top.name, Start: top.start.Sub(t.t0).Nanoseconds(),
			End: now.Sub(t.t0).Nanoseconds(), Parent: parent, Run: t.run,
		})
	} else {
		t.dropped++
	}
}

// do times fn as one span.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

func (t *tracer) calls(name string) float64 {
	if t == nil || t.agg[name] == nil {
		return 0
	}
	return float64(t.agg[name].Calls)
}

func (t *tracer) busy(name string) float64 {
	if t == nil || t.agg[name] == nil {
		return 0
	}
	return t.agg[name].Total.Seconds()
}

func (t *tracer) self(name string) float64 {
	if t == nil || t.agg[name] == nil {
		return 0
	}
	return t.agg[name].Self.Seconds()
}

// writeSpans writes the kept spans and the per-name aggregates as one
// JSON document.
func (t *tracer) writeSpans(path string) error {
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	type aggOut struct {
		Name   string  `json:"name"`
		Calls  int     `json:"calls"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	doc := struct {
		Spans   []span   `json:"spans"`
		Dropped int      `json:"dropped"`
		Agg     []aggOut `json:"aggregates"`
	}{Spans: t.spans, Dropped: t.dropped}
	for _, n := range names {
		a := t.agg[n]
		doc.Agg = append(doc.Agg, aggOut{n, a.Calls, a.Total.Seconds(), a.Self.Seconds()})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// lrmProbe is the delegating lrm.LRM installed through
// core.Config.ResourceWrap: it times and counts Submit and forwards
// every call unchanged.
type lrmProbe struct {
	lrm.LRM
	tr     *tracer
	errors *int
}

func (p lrmProbe) Submit(j *lrm.Job) error {
	p.tr.begin("lrm.submit")
	err := p.LRM.Submit(j)
	p.tr.end()
	if err != nil {
		*p.errors++
	}
	return err
}

// lrmWrap returns the ResourceWrap hook that installs lrmProbe.
func lrmWrap(tr *tracer, errors *int) func(*sim.Engine, string, lrm.LRM) lrm.LRM {
	return func(_ *sim.Engine, _ string, inner lrm.LRM) lrm.LRM {
		return lrmProbe{LRM: inner, tr: tr, errors: errors}
	}
}

// predictProbe is the delegating predictor installed with
// Scheduler.SetPredictor.
type predictProbe struct {
	inner metasched.Predictor
	tr    *tracer
}

func (p predictProbe) Predict(spec *workload.JobSpec) (float64, error) {
	p.tr.begin("estimate.predict")
	v, err := p.inner.Predict(spec)
	p.tr.end()
	return v, err
}

// evalProbe is the delegating phylo.Evaluator around a beagle engine.
// SearchWith uses only the three Evaluator methods, so forwarding them
// is the whole contract.
type evalProbe struct {
	inner phylo.Evaluator
	tr    *tracer
	evals string // span names, suffixed with the data type
	opts  string
}

func newEvalProbe(inner phylo.Evaluator, tr *tracer, suffix string) *evalProbe {
	return &evalProbe{inner: inner, tr: tr, evals: "beagle.eval" + suffix, opts: "beagle.optimize" + suffix}
}

func (p *evalProbe) LogLikelihood(t *phylo.Tree) float64 {
	p.tr.begin(p.evals)
	v := p.inner.LogLikelihood(t)
	p.tr.end()
	return v
}

func (p *evalProbe) OptimizeBranch(t *phylo.Tree, n *phylo.Node, iterations int) float64 {
	p.tr.begin(p.opts)
	v := p.inner.OptimizeBranch(t, n, iterations)
	p.tr.end()
	return v
}

func (p *evalProbe) TotalWork() float64 { return p.inner.TotalWork() }
