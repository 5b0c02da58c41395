// Package core assembles The Lattice Project: the discrete-event
// engine, the resource federation (Condor pools, PBS/SGE clusters, the
// BOINC volunteer pool, and the homogeneous reference cluster), MDS
// monitoring, the grid-level scheduler with its random-forest runtime
// estimator, the GSBL service layer and the science portal — wired the
// way Sections II-VI describe.
package core

import (
	"fmt"
	"path/filepath"
	"sort"

	"lattice/internal/admit"
	"lattice/internal/boinc"
	"lattice/internal/dag"
	"lattice/internal/estimate"
	"lattice/internal/faults"
	"lattice/internal/grid/mds"
	"lattice/internal/gsbl"
	"lattice/internal/lrm"
	"lattice/internal/lrm/condor"
	"lattice/internal/lrm/pbs"
	"lattice/internal/lrm/sge"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/portal"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// ResourceSpec declares one resource of the federation.
type ResourceSpec struct {
	Kind  string // "condor", "pbs", "sge", "boinc"
	Name  string
	Nodes int
	Cores int     // per node (sge)
	Speed float64 // node speed vs reference
	MemMB int
	// Condor-only: owner activity.
	MeanOwnerAway sim.Duration
	MeanOwnerBusy sim.Duration
	// BOINC-only population.
	Population *boinc.PopulationConfig
	MPI        bool
	Platform   lrm.Platform
}

// Config describes a whole Lattice deployment.
type Config struct {
	Seed           int64
	MDSTTL         sim.Duration
	ProviderPeriod sim.Duration
	Scheduler      metasched.Config
	Estimator      estimate.Config
	// TrainingJobs bootstraps the runtime model with this many
	// generated jobs (the paper's ~150-job matrix). 0 disables the
	// estimator entirely.
	TrainingJobs int
	Resources    []ResourceSpec
	// ReferenceCluster names the homogeneous speed-1.0 cluster used
	// for continuous retraining forks; empty disables retraining.
	ReferenceCluster string
	// Faults, when non-nil, wires the deterministic fault injector
	// between the scheduler and every resource: submits and results
	// pass through per-resource wrappers, MDS publications through a
	// dropping/staling sink, and the schedule's events fire on the
	// virtual clock. Nil leaves the production path untouched — no
	// wrapper, no extra RNG stream, bit-identical behaviour.
	Faults *faults.Schedule
	// Ingest, when non-zero, models the coordinator front door as a
	// serialized queue with per-submission virtual service time (see
	// gsbl.IngestConfig). Zero keeps the synchronous accept path —
	// bit-identical to pre-scale-out builds.
	Ingest gsbl.IngestConfig
	// Admit, when enabled, turns on the protection of the ingest
	// queue: per-user token-bucket quotas, weighted fair-share ordering
	// instead of arrival order, and bounded-queue load shedding with
	// computed retry-after hints (see admit.Config). Requires Ingest to
	// be enabled. The zero value leaves the same queue unprotected: no
	// quotas, no shedding, served in arrival order.
	Admit admit.Config
	// IDPrefix qualifies batch and workflow IDs ("shard0-batch-000001")
	// so a cluster front router can attribute an ID to its coordinator
	// shard. Empty for single-coordinator deployments.
	IDPrefix string
	// ResourceWrap, when non-nil, wraps every resource after fault
	// wrapping and before MDS/scheduler registration — the seam the
	// cluster's lease gates install through. The engine is the
	// deployment's clock for time-dependent wrappers. Nil leaves
	// resources untouched.
	ResourceWrap func(eng *sim.Engine, name string, inner lrm.LRM) lrm.LRM
	// Durable, when non-empty, is a directory for crash-consistent
	// state: every coordinator transition and input is appended to a
	// write-ahead log there (see internal/wal), periodic snapshots
	// bound replay, and core.Recover resumes a killed deployment
	// mid-batch. Empty disables durability entirely — no recorder, no
	// extra RNG draws, bit-identical to pre-durability builds.
	Durable string
	// WAL tunes the write-ahead log when Durable is set.
	WAL wal.Options
}

// DefaultConfig builds the paper's federation: four Condor pools, four
// clusters (two PBS, one SGE, one reference PBS), and a BOINC
// volunteer pool, at laptop-friendly scale.
func DefaultConfig(seed int64) Config {
	pop := boinc.DefaultPopulation(400)
	return Config{
		Seed:           seed,
		MDSTTL:         5 * sim.Minute,
		ProviderPeriod: sim.Minute,
		Scheduler:      metasched.DefaultConfig(),
		Estimator:      estimate.DefaultConfig(),
		TrainingJobs:   150,
		Resources: []ResourceSpec{
			{Kind: "condor", Name: "umd-condor", Nodes: 64, Speed: 1.1, MemMB: 2048,
				MeanOwnerAway: 6 * sim.Hour, MeanOwnerBusy: 3 * sim.Hour, Platform: lrm.LinuxX86},
			{Kind: "condor", Name: "bowie-condor", Nodes: 32, Speed: 0.8, MemMB: 1024,
				MeanOwnerAway: 8 * sim.Hour, MeanOwnerBusy: 4 * sim.Hour, Platform: lrm.WindowsX86},
			{Kind: "condor", Name: "coppin-condor", Nodes: 24, Speed: 0.7, MemMB: 1024,
				MeanOwnerAway: 5 * sim.Hour, MeanOwnerBusy: 5 * sim.Hour, Platform: lrm.WindowsX86},
			{Kind: "condor", Name: "si-condor", Nodes: 40, Speed: 1.0, MemMB: 2048,
				MeanOwnerAway: 10 * sim.Hour, MeanOwnerBusy: 6 * sim.Hour, Platform: lrm.DarwinX86},
			{Kind: "pbs", Name: "umd-hpc", Nodes: 64, Speed: 2.0, MemMB: 8192, MPI: true, Platform: lrm.LinuxX86},
			{Kind: "pbs", Name: "bigmem-cluster", Nodes: 8, Speed: 1.6, MemMB: 65536, Platform: lrm.LinuxX86},
			{Kind: "sge", Name: "bio-sge", Nodes: 16, Cores: 4, Speed: 1.4, MemMB: 16384, Platform: lrm.LinuxX86},
			{Kind: "pbs", Name: "reference-cluster", Nodes: 8, Speed: 1.0, MemMB: 4096, Platform: lrm.LinuxX86},
			// The volunteer pool's scheduling speed is its measured
			// *turnaround* speed: median host speed (~0.8×) diluted
			// by the typical duty cycle (~42%) — exactly what the
			// paper's benchmark-job procedure observes on BOINC.
			{Kind: "boinc", Name: "lattice-boinc", Population: &pop, Speed: 0.35},
		},
		ReferenceCluster: "reference-cluster",
	}
}

// DefaultFaultSchedule is a hostile-but-survivable schedule over the
// DefaultConfig federation: a day-long HPC outage, a flapping Condor
// pool, a gatekeeper that refuses half of all submissions for a day,
// an MDS blackout and a staleness burst, a volunteer exodus, and lossy
// and slow result channels on two pools. Everything the resilience
// layer exists for, firing in the first simulated week.
func DefaultFaultSchedule() *faults.Schedule {
	return &faults.Schedule{
		Events: []faults.Event{
			{At: sim.Time(6 * sim.Hour), Kind: faults.KindOutage, Resource: "umd-hpc", Duration: 24 * sim.Hour},
			{At: sim.Time(2 * sim.Hour), Kind: faults.KindSubmitFail, Resource: "bio-sge", Duration: 24 * sim.Hour, P: 0.5},
			{At: sim.Time(8 * sim.Hour), Kind: faults.KindMDSDrop, Resource: "bigmem-cluster", Duration: 2 * sim.Hour},
			{At: sim.Time(4 * sim.Hour), Kind: faults.KindMDSStale, Resource: "umd-condor", Duration: 6 * sim.Hour},
			{At: sim.Time(12 * sim.Hour), Kind: faults.KindChurn, Resource: "lattice-boinc", Hosts: 60},
			{At: 0, Kind: faults.KindLostResult, Resource: "si-condor", Duration: 5 * sim.Day, P: 0.25},
			{At: 0, Kind: faults.KindSlowResult, Resource: "bowie-condor", Duration: 5 * sim.Day, P: 0.5, Delay: 2 * sim.Hour},
		},
		Flaps: []faults.Flap{
			{Resource: "coppin-condor", MeanUp: 12 * sim.Hour, MeanDown: sim.Hour, Until: sim.Time(10 * sim.Day)},
		},
	}
}

// Lattice is a running grid system.
type Lattice struct {
	Engine    *sim.Engine
	Index     *mds.Index
	Scheduler *metasched.Scheduler
	Service   *gsbl.Service
	Mailer    *gsbl.Mailer
	Estimator *estimate.Estimator
	Portal    *portal.Portal
	Boinc     *boinc.Server // nil if no BOINC resource configured
	// Workflows is the stage-DAG workflow engine, mapping ready
	// stages onto the GSBL batch path.
	Workflows *dag.Engine
	// Obs is the deployment-wide observability hub: metrics, traces,
	// and the job-lifecycle journal, all on virtual time.
	Obs *obs.Obs
	// Faults is the active fault injector (nil unless Config.Faults
	// was set).
	Faults *faults.Injector
	// Recovery describes the rebuild when this Lattice came from
	// Recover; nil on a fresh New.
	Recovery *RecoveryReport

	rng       *sim.RNG
	rec       *recorder
	resources map[string]lrm.LRM
	refName   string
	retrains  int
	// retrainErrs records failures of the continuous-retraining loop
	// (reference-cluster submits, observation feeds, rebuilds), which
	// run inside simulation callbacks with no caller to return to.
	retrainErrs []error
}

// New assembles and starts a Lattice deployment. With cfg.Durable set
// it also creates a fresh write-ahead log there and wires the
// durability recorder through every component; use Recover instead
// when the directory already holds state.
func New(cfg Config) (*Lattice, error) {
	l, err := build(cfg, false)
	if err != nil {
		return nil, err
	}
	if cfg.Durable != "" {
		lg, err := wal.Create(cfg.Durable, cfg.WAL)
		if err != nil {
			return nil, err
		}
		rec := newRecorder(l.Engine, cfg.Seed)
		l.wireDurable(rec)
		rec.attachLog(lg)
		rec.begin()
		if err := l.Portal.SetArtifactDir(filepath.Join(cfg.Durable, "artifacts")); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// build assembles the deployment. rebuild marks a recovery
// re-execution: identical wiring and RNG draws, but scheduled crashes
// must not stop the engine (the rebuild runs straight through them).
func build(cfg Config, rebuild bool) (*Lattice, error) {
	if cfg.MDSTTL <= 0 {
		cfg.MDSTTL = 5 * sim.Minute
	}
	if cfg.ProviderPeriod <= 0 {
		cfg.ProviderPeriod = sim.Minute
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	idx, err := mds.NewIndex(eng, cfg.MDSTTL)
	if err != nil {
		return nil, err
	}
	l := &Lattice{
		Engine:    eng,
		Index:     idx,
		rng:       rng,
		resources: make(map[string]lrm.LRM),
		refName:   cfg.ReferenceCluster,
	}
	l.Obs = obs.New(eng)
	l.Scheduler = metasched.New(eng, idx, cfg.Scheduler)
	l.Scheduler.SetObs(l.Obs)
	// The injector and its sink exist only when a fault schedule is
	// configured: a no-fault deployment takes the exact pre-injector
	// path (same wiring, same RNG stream draws, bit-identical runs).
	var pubSink mds.Sink = idx
	if cfg.Faults != nil {
		l.Faults = faults.NewInjector(eng, rng.Stream("faults"))
		l.Faults.SetObs(l.Obs)
		if rebuild {
			l.Faults.SetCrashStops(false)
		}
		pubSink = l.Faults.Sink(idx)
	}
	for _, rs := range cfg.Resources {
		inner, err := l.buildResource(rs)
		if err != nil {
			return nil, err
		}
		if w, ok := inner.(interface{ SetObs(*obs.Obs) }); ok {
			w.SetObs(l.Obs)
		}
		target := inner
		if l.Faults != nil {
			target = l.Faults.Wrap(inner)
			if rs.Kind == "boinc" {
				l.Faults.AttachChurner(rs.Name, l.Boinc)
			}
		}
		if cfg.ResourceWrap != nil {
			target = cfg.ResourceWrap(eng, rs.Name, target)
		}
		l.resources[rs.Name] = target
		if _, err := mds.StartProvider(eng, pubSink, target, cfg.ProviderPeriod); err != nil {
			return nil, err
		}
		speed := rs.Speed
		if speed <= 0 {
			speed = 1
		}
		if err := l.Scheduler.Register(target, speed); err != nil {
			return nil, err
		}
	}
	if l.Faults != nil {
		if err := l.Faults.Apply(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	if cfg.TrainingJobs > 0 {
		est, err := estimate.Bootstrap(cfg.Estimator, workload.NewGenerator(cfg.Seed+1), cfg.TrainingJobs)
		if err != nil {
			return nil, err
		}
		l.Estimator = est
		l.Scheduler.SetPredictor(est)
	}
	l.Mailer = &gsbl.Mailer{}
	l.Service = gsbl.NewService(eng, l.Scheduler, l.Mailer, rng.Stream("gsbl"))
	l.Service.SetObs(l.Obs)
	l.Service.SetIDPrefix(cfg.IDPrefix)
	l.Service.SetIngest(cfg.Ingest)
	if cfg.Admit.Enabled() {
		if err := l.Service.SetAdmit(cfg.Admit); err != nil {
			return nil, err
		}
	}
	l.Workflows = dag.NewEngine(eng, l.Service, l.Obs, dag.Config{IDPrefix: cfg.IDPrefix})
	l.Portal = portal.New(eng, l.Service)
	l.Portal.SetObs(l.Obs)
	l.Portal.SetWorkflows(l.Workflows)
	l.Portal.SetStatusSource(func() any {
		return map[string]any{
			"resources": l.statusRows(),
			"scheduler": l.Scheduler.Stats(),
			"time":      float64(l.Engine.Now()),
		}
	})
	return l, nil
}

// statusRow is one resource line of the /grid/status body.
type statusRow struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Total   int    `json:"totalCPUs"`
	Free    int    `json:"freeCPUs"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Stable  bool   `json:"stable"`
}

// statusRows renders the MDS snapshot as /grid/status rows (nil when
// no resource has published).
func (l *Lattice) statusRows() []statusRow {
	var rows []statusRow
	for _, e := range l.Index.Snapshot() {
		rows = append(rows, statusRow{
			Name: e.Info.Name, Kind: e.Info.Kind,
			Total: e.Info.TotalCPUs, Free: e.Info.FreeCPUs,
			Queued: e.Info.QueuedJobs, Running: e.Info.RunningJobs,
			Stable: e.Info.Stable,
		})
	}
	return rows
}

// buildResource constructs one LRM from its spec.
func (l *Lattice) buildResource(rs ResourceSpec) (lrm.LRM, error) {
	plat := rs.Platform
	if plat == "" {
		plat = lrm.LinuxX86
	}
	switch rs.Kind {
	case "condor":
		machines := make([]condor.Machine, rs.Nodes)
		for i := range machines {
			machines[i] = condor.Machine{
				Speed:         jitter(l.rng, rs.Speed, 0.2),
				MemoryMB:      rs.MemMB,
				Platform:      plat,
				MeanOwnerAway: rs.MeanOwnerAway,
				MeanOwnerBusy: rs.MeanOwnerBusy,
			}
		}
		return condor.New(l.Engine, l.rng.Stream("condor-"+rs.Name), condor.Config{
			Name: rs.Name, Machines: machines, MaxRequeues: 50,
		})
	case "pbs":
		return pbs.New(l.Engine, pbs.Config{
			Name: rs.Name, Platform: plat, MPI: rs.MPI,
			Nodes: []pbs.NodeClass{{Count: rs.Nodes, Speed: rs.Speed, MemoryMB: rs.MemMB}},
		})
	case "sge":
		cores := rs.Cores
		if cores <= 0 {
			cores = 1
		}
		return sge.New(l.Engine, sge.Config{
			Name: rs.Name, Platform: plat, MPI: rs.MPI,
			Nodes: []sge.NodeClass{{Count: rs.Nodes, Cores: cores, Speed: rs.Speed, MemoryMB: rs.MemMB}},
		})
	case "boinc":
		srv, err := boinc.NewServer(l.Engine, l.rng.Stream("boinc-"+rs.Name), boinc.DefaultConfig(rs.Name))
		if err != nil {
			return nil, err
		}
		pop := rs.Population
		if pop == nil {
			p := boinc.DefaultPopulation(200)
			pop = &p
		}
		boinc.GeneratePopulation(srv, l.rng.Stream("boincpop-"+rs.Name), *pop)
		l.Boinc = srv
		return srv, nil
	default:
		return nil, fmt.Errorf("core: unknown resource kind %q", rs.Kind)
	}
}

func jitter(rng *sim.RNG, v, frac float64) float64 {
	return v * rng.Uniform(1-frac, 1+frac)
}

// Resource returns a federation member by name.
func (l *Lattice) Resource(name string) (lrm.LRM, bool) {
	r, ok := l.resources[name]
	return r, ok
}

// ResourceNames lists the federation members in sorted order, so
// callers that iterate and emit never depend on map layout.
func (l *Lattice) ResourceNames() []string {
	names := make([]string, 0, len(l.resources))
	for n := range l.resources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalCores sums the federation's CPU cores as MDS currently sees it.
func (l *Lattice) TotalCores() int {
	total := 0
	for _, e := range l.Index.Snapshot() {
		total += e.Info.TotalCPUs
	}
	return total
}

// SubmitSubmission validates and schedules a portal-style submission,
// forking one extra replicate to the reference cluster for continuous
// model retraining when configured (Section VI-E: "we simply fork off
// a single job replicate on our reference computer … and add the
// observed runtime and values of the predictor variables to the
// matrix").
func (l *Lattice) SubmitSubmission(sub workload.Submission) (*gsbl.Batch, error) {
	b, err := l.Service.SubmitBatchOrigin(sub, "core")
	if err != nil {
		return nil, err
	}
	if l.refName != "" && l.Estimator != nil {
		l.forkReferenceReplicate(sub)
	}
	return b, nil
}

// SubmitWorkflow validates and starts a stage-DAG workflow: each
// stage becomes a derived GSBL batch the moment its dependencies
// finish. The workflow itself is the durable input; stage batches are
// regenerated by deterministic re-execution on recovery.
func (l *Lattice) SubmitWorkflow(wf workload.Workflow) (*dag.Run, error) {
	return l.Workflows.Submit(wf)
}

// forkReferenceReplicate runs one replicate on the homogeneous
// reference cluster and feeds the observation back into the model.
func (l *Lattice) forkReferenceReplicate(sub workload.Submission) {
	ref, ok := l.resources[l.refName]
	if !ok {
		return
	}
	spec := sub.Spec
	spec.Seed = sub.Spec.Seed ^ 0x7ef
	work := spec.SampleWork(l.rng.Stream("reffork"))
	start := l.Engine.Now()
	l.retrains++
	j := &lrm.Job{
		ID:       fmt.Sprintf("ref-fork-%d", l.retrains),
		Work:     work,
		MemoryMB: spec.MemoryMB(),
	}
	j.OnComplete = func(at sim.Time) {
		// The reference cluster runs at speed 1.0, so wall time is
		// reference time (minus queueing, which the paper's operators
		// also absorbed).
		observed := float64(at.Sub(start))
		if err := l.Estimator.AddObservation(&spec, observed); err != nil {
			l.noteRetrainErr(err)
			return
		}
		// Rebuilding "takes very little time to compute" and the new
		// model "is immediately available for use with incoming jobs".
		if err := l.Estimator.Retrain(); err != nil {
			l.noteRetrainErr(err)
		}
	}
	if err := ref.Submit(j); err != nil {
		l.noteRetrainErr(err)
	}
}

// noteRetrainErr records a continuous-retraining failure, keeping the
// most recent ones.
func (l *Lattice) noteRetrainErr(err error) {
	const keep = 32
	if len(l.retrainErrs) >= keep {
		l.retrainErrs = l.retrainErrs[1:]
	}
	l.retrainErrs = append(l.retrainErrs, err)
}

// RetrainErrors returns the recorded continuous-retraining failures
// (most recent last). An empty slice means the loop is healthy.
func (l *Lattice) RetrainErrors() []error { return l.retrainErrs }

// Retrains reports how many reference forks have been issued.
func (l *Lattice) Retrains() int { return l.retrains }

// Run advances the grid by d.
func (l *Lattice) Run(d sim.Duration) {
	l.Engine.RunUntil(l.Engine.Now().Add(d))
}
