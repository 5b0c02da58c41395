package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lattice/internal/core"
	"lattice/internal/dag"
	"lattice/internal/estimate"
	"lattice/internal/gsbl"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// federation-durable: the paper's default federation (four Condor
// pools, three PBS clusters, one SGE cluster, BOINC) with the 150-job
// estimator bootstrap and continuous retraining through reference
// forks, under the default fault schedule with the WAL on. Forty
// portal submissions with specs from the workload generator plus three
// standard-analysis workflows arrive at hourly pump boundaries over
// three virtual days. At 24 h and 48 h a recovery probe copies the WAL
// directory and recovers the copy, whose journal digest must equal the
// live one; the live run continues untouched.
const (
	fedWorkflows    = 3
	fedArrivalHours = 72
)

// fedClasses is the submission mix: the generator's four replicate
// size classes in its own proportions (35/40/20/5%) at each class's
// mean size, 11,270 replicates over 40 submissions. Within each class
// the specs cycle through fedBands, and the workflows' specs sit in the
// middle band, so every seed offers about the same number of grid jobs
// of about the same lengths; the seed chooses the specs (data type,
// model, taxa, sites), users and arrival hours.
var fedClasses = []struct{ count, replicates int }{
	{14, 5}, {16, 125}, {8, 650}, {2, workload.MaxReplicates},
}

// fedBands are runtime bands in reference seconds: below the
// scheduler's MinJobSeconds (300 s) replicates are bundled into few
// jobs, above it each replicate is a job.
var fedBands = [][2]float64{{0, 300}, {300, 1800}, {1800, 3600}}

var fedProbeHours = []int{24, 48}

type fedArrival struct {
	hour int
	sub  *workload.Submission // nil for a workflow
	wf   *workload.Workflow
	key  string
}

type federation struct {
	seed     int64
	arrivals []fedArrival

	cfg      core.Config
	l        *core.Lattice
	live     string
	runKey   map[string]string // workflow run ID -> offer key
	lrmErrs  int
	recovers []time.Duration
}

func newFederation(seed int64) (instance, error) {
	f := &federation{seed: seed}
	f.cfg = core.DefaultConfig(seed)
	f.cfg.Faults = core.DefaultFaultSchedule()
	// The deployment's initial runtime model, rebuilt here to sort
	// specs the way its scheduler will: an estimate below
	// MinJobSeconds has its replicates bundled into few jobs.
	est, err := estimate.Bootstrap(f.cfg.Estimator, workload.NewGenerator(f.cfg.Seed+1), f.cfg.TrainingJobs)
	if err != nil {
		return nil, err
	}
	// A spec is in a band when both the scheduler's estimate and the
	// cost model's expected runtime are: the first decides bundling,
	// the second how long the jobs really run.
	inBand := func(spec *workload.JobSpec, band [2]float64) bool {
		v, err := est.Predict(spec)
		w := workload.ReferenceSeconds(spec.ExpectedWork())
		return err == nil && v >= band[0] && v < band[1] && w >= band[0] && w < band[1]
	}
	gen := workload.NewGenerator(seed)
	rng := sim.NewRNG(seed).Stream("perfbench-federation")
	n := 0
	for _, class := range fedClasses {
		for i := 0; i < class.count; i++ {
			// Draw from the generator until a spec in this
			// submission's band comes up.
			band := fedBands[i%len(fedBands)]
			sub := gen.Submission()
			for !inBand(&sub.Spec, band) {
				sub.Spec = gen.Job()
			}
			n++
			sub.Replicates = class.replicates
			sub.Bootstrap = class.replicates >= 50
			sub.Spec.Seed = int64(n) // the batch's key back to its offer
			f.arrivals = append(f.arrivals, fedArrival{
				hour: rng.Intn(fedArrivalHours), sub: &sub, key: fmt.Sprintf("sub-%d", n),
			})
		}
	}
	for i := 0; i < fedWorkflows; i++ {
		spec := gen.Job()
		for !inBand(&spec, fedBands[1]) {
			spec = gen.Job()
		}
		wf := dag.StandardAnalysis(fmt.Sprintf("analysis-%d", i), fmt.Sprintf("wf%d@example.edu", i),
			seed+int64(i), spec, 10, 100)
		f.arrivals = append(f.arrivals, fedArrival{
			hour: rng.Intn(fedArrivalHours), wf: &wf, key: fmt.Sprintf("wf-%d", i),
		})
	}
	sort.SliceStable(f.arrivals, func(i, j int) bool { return f.arrivals[i].hour < f.arrivals[j].hour })
	return f, nil
}

func (f *federation) setup(it *iteration) error {
	cfg := f.cfg
	f.live = filepath.Join(it.dir, "live")
	cfg.Durable = f.live
	f.lrmErrs = 0
	if it.tr != nil {
		cfg.ResourceWrap = lrmWrap(it.tr, &f.lrmErrs)
	}
	var err error
	it.tr.do("core.new", func() { f.l, err = core.New(cfg) })
	if err != nil {
		return err
	}
	if it.tr != nil {
		f.l.Scheduler.SetPredictor(predictProbe{inner: f.l.Estimator, tr: it.tr})
	}
	return nil
}

func (f *federation) run(it *iteration) error {
	l := f.l
	f.runKey = map[string]string{}
	f.recovers = nil
	next := 0
	const limit = 60 * 24 // hours
	for h := 0; ; h++ {
		if h > 0 {
			at := sim.Time(sim.Duration(h) * sim.Hour)
			it.tr.do("sim.run_until", func() { l.Engine.RunUntil(at) })
		}
		for _, ph := range fedProbeHours {
			if h == ph {
				if err := f.probe(it, h); err != nil {
					return err
				}
			}
		}
		for ; next < len(f.arrivals) && f.arrivals[next].hour == h; next++ {
			a := f.arrivals[next]
			var err error
			it.tr.do("gsbl.accept", func() {
				if a.sub != nil {
					_, err = l.SubmitSubmission(*a.sub)
					return
				}
				var r *dag.Run
				r, err = l.SubmitWorkflow(*a.wf)
				if err == nil {
					f.runKey[r.ID] = a.key
				}
			})
			if err != nil {
				return fmt.Errorf("arrival %s: %w", a.key, err)
			}
		}
		it.lap()
		if next == len(f.arrivals) && fedDone(l) {
			return nil
		}
		if h >= limit {
			return fmt.Errorf("federation not done after %d virtual hours", limit)
		}
	}
}

func fedDone(l *core.Lattice) bool {
	st := l.Scheduler.Stats()
	if st.Completed+st.Failed < st.Submitted {
		return false
	}
	for _, id := range l.Workflows.Runs() {
		if rs, err := l.Workflows.Status(id); err != nil || rs.State == dag.RunRunning {
			return false
		}
	}
	for _, id := range l.Service.Batches() {
		if bst, err := l.Service.Status(id); err != nil || !bst.Done {
			return false
		}
	}
	return true
}

// probe copies the live WAL directory and recovers the copy. Its time
// is excluded from run_s and reported as recover_s; the live
// deployment is not touched.
func (f *federation) probe(it *iteration, hour int) error {
	it.lap()
	it.runM.stop()
	defer func() {
		it.runM.start()
		it.resumeLaps()
	}()
	dir := filepath.Join(it.dir, fmt.Sprintf("probe-%dh", hour))
	if err := copyDir(f.live, dir); err != nil {
		return err
	}
	var err error
	it.tr.do("wal.load", func() { _, err = wal.Load(dir) })
	if err != nil {
		return err
	}
	cfg := f.cfg
	var rec *core.Lattice
	t0 := time.Now()
	it.tr.do("core.recover", func() { rec, err = core.Recover(dir, cfg) })
	f.recovers = append(f.recovers, time.Since(t0))
	if err != nil {
		it.check("recovery probe", false, "probe at %dh: %v", hour, err)
		return nil
	}
	live := f.l.Obs.Journal.Digest()
	got := rec.Obs.Journal.Digest()
	it.check("recovery probe digest", got == live, "probe at %dh: %s vs live %s", hour, short(got), short(live))
	it.layer["core.recover_inputs"] += float64(rec.Recovery.Inputs)
	it.layer["core.recover_records"] += float64(rec.Recovery.Records)
	if err := rec.CloseDurable(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

func (f *federation) collect(it *iteration) error {
	l := f.l
	g := &gridCollect{
		lats:         []*core.Lattice{l},
		workflowDone: map[string]sim.Time{},
		keyOf: func(b *gsbl.Batch) (string, bool) {
			if b.Origin != "core" {
				return "", false
			}
			return fmt.Sprintf("sub-%d", b.Submission.Spec.Seed), true
		},
	}
	for _, a := range f.arrivals {
		g.offers = append(g.offers, offer{at: sim.Time(sim.Duration(a.hour) * sim.Hour), key: a.key})
	}
	for id, key := range f.runKey {
		rs, err := l.Workflows.Status(id)
		if err != nil {
			return err
		}
		g.workflowDone[key] = rs.DoneAt
	}
	if err := g.collect(it); err != nil {
		return err
	}
	it.digest = journalDigest(g.lats)
	var recover float64
	for _, d := range f.recovers {
		recover += d.Seconds()
	}
	it.e2e["recover_s"] = recover
	it.check("retraining healthy", len(l.RetrainErrors()) == 0, "%d retraining errors", len(l.RetrainErrors()))
	err := l.DurableErr()
	it.check("wal healthy", err == nil, "%v", err)

	it.layer["gsbl.accept_calls"] = it.tr.calls("gsbl.accept")
	it.layer["gsbl.accept_busy_s"] = it.tr.busy("gsbl.accept")
	it.layer["estimate.retrains"] = float64(l.Retrains())
	it.layer["estimate.predict_calls"] = it.tr.calls("estimate.predict")
	it.layer["estimate.predict_busy_s"] = it.tr.busy("estimate.predict")
	it.layer["lrm.submit_calls"] = it.tr.calls("lrm.submit")
	it.layer["lrm.submit_busy_s"] = it.tr.busy("lrm.submit")
	it.layer["lrm.submit_errors"] = float64(f.lrmErrs)
	it.layer["wal.load_s"] = it.tr.busy("wal.load")
	if n := it.tr.calls("core.recover"); n > 0 {
		it.layer["core.recover_busy_s"] = it.tr.busy("core.recover") / n
	}
	if it.tr != nil {
		t0 := time.Now()
		if _, err := estimate.Bootstrap(f.cfg.Estimator, workload.NewGenerator(f.cfg.Seed+1), f.cfg.TrainingJobs); err != nil {
			return err
		}
		it.layer["estimate.bootstrap_s"] = time.Since(t0).Seconds()
	}
	if err := l.CloseDurable(); err != nil {
		return err
	}
	return walLayer(it, []string{f.live})
}

func (f *federation) teardown() error {
	var err error
	if f.l != nil {
		err = f.l.CloseDurable()
	}
	f.l = nil
	return err
}

// copyDir copies the regular files of a WAL directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close() //lint:allow errdrop -- the copy error is the one reported
			return err
		}
		return out.Close()
	})
}
