package experiments

import (
	"fmt"

	"lattice/internal/admit"
	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// The overload experiment proves the admission layer's claim: under a
// 10× demand spike the protected coordinator degrades gracefully —
// shedding the excess deterministically, journaling every rejection as
// a submission terminal, and keeping goodput near its pre-spike rate —
// while the unprotected baseline lets the front-door queue grow
// without bound and its tail waits blow up. The spike is generated by
// the fault vocabulary itself (faults.KindDemandSpike driving a
// self-scheduling arrival process, plus a mid-spike capacity collapse
// on one resource per shard so the circuit breakers have something to
// trip on), so hostile demand is exactly as reproducible as hostile
// infrastructure: same-seed twin runs must stay digest-equal at 1 and
// 4 shards.

const (
	// overloadWarmup is the calm period before the spike; its batch
	// completion rate is the goodput reference.
	overloadWarmup = 30 * sim.Minute
	// overloadSpikeLen is the demand-spike window.
	overloadSpikeLen = 30 * sim.Minute
	// overloadHorizon is when arrivals stop; the run then drains.
	overloadHorizon = 90 * sim.Minute
	// overloadBaseGap is the calm per-shard interarrival gap; the spike
	// divides it by overloadFactor.
	overloadBaseGap = 5 * sim.Second
	// overloadFactor is the demand multiplier during the spike.
	overloadFactor = 10.0
	// overloadUserPool is the distinct generator users per shard,
	// cycled round-robin so fair-share has principals to balance.
	overloadUserPool = 40
	// overloadHeavyEvery spaces the quota-abusing heavy user's repeat
	// submissions (overloadHeavyReps replicates each, starting at the
	// end of warmup, always on shard 0).
	overloadHeavyEvery = 10 * sim.Minute
	overloadHeavyReps  = 240
)

// overloadAdmit is the protection bundle the protected runs enable:
// a per-user budget generous enough for the calm workload but not for
// the heavy user's replay loop, and a front door bounded to two
// minutes of projected wait.
func overloadAdmit() admit.Config {
	return admit.Config{
		UserRatePerHour:  720,
		UserBurst:        300,
		MaxQueueDepth:    512,
		MaxQueuedSeconds: 120,
	}
}

// overloadFederation is the experiment's grid: eight identical PBS
// clusters (so every partition has the same capacity per shard), the
// PR9 ingest door pricing, and — when protected — the admission
// bundle plus circuit breakers in the scheduler.
func overloadFederation(seed int64, protected bool) core.Config {
	var res []core.ResourceSpec
	for i := 0; i < 8; i++ {
		res = append(res, core.ResourceSpec{
			Kind: "pbs", Name: fmt.Sprintf("pbs%02d", i),
			Nodes: 32, Speed: 2.0, MemMB: 8192,
		})
	}
	sched := metasched.DefaultConfig()
	sched.BundleTargetSeconds = 0
	if protected {
		sched.BreakerThreshold = 5
		sched.BreakerCooldown = 10 * sim.Minute
	}
	cfg := core.Config{
		Seed:      seed,
		Scheduler: sched,
		Resources: res,
		Ingest:    gsbl.IngestConfig{PerSubmissionSeconds: 1.0, PerReplicateSeconds: 0.25},
	}
	if protected {
		cfg.Admit = overloadAdmit()
	}
	return cfg
}

// overloadFaults is shard k's hostile schedule: the demand spike
// (driving that shard's arrival generator through the AttachDemand
// hook) plus a mid-spike brownout of the shard's first owned resource
// — its gatekeeper refuses every submit for ten minutes while its
// published capacity is halved, so the circuit breakers have a
// flapping gate to trip on right when demand peaks. Under the static
// partition shard k of N owns resource k first, so "pbs0k" exists on
// shard k at both tested shard counts.
func overloadFaults(k int) *faults.Schedule {
	target := fmt.Sprintf("pbs%02d", k)
	return &faults.Schedule{Events: []faults.Event{
		{At: sim.Time(overloadWarmup), Kind: faults.KindDemandSpike,
			Resource: "portal-demand", Duration: overloadSpikeLen, Factor: overloadFactor},
		{At: sim.Time(overloadWarmup + 5*sim.Minute), Kind: faults.KindSubmitFail,
			Resource: target, Duration: 10 * sim.Minute, P: 1.0},
		{At: sim.Time(overloadWarmup + 10*sim.Minute), Kind: faults.KindCapacityCollapse,
			Resource: target, Duration: 10 * sim.Minute, Factor: 0.5},
	}}
}

// overloadSubmission is generator arrival i on shard k: one small
// GARLI replicate from a round-robin user pool.
func overloadSubmission(i, k int, seed int64) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
			NumTaxa: 12, SeqLength: 400, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: seed,
		},
		Replicates: 1,
		UserEmail:  fmt.Sprintf("u%02d.s%d@overload.example.edu", i%overloadUserPool, k),
	}
}

// overloadHeavySubmission is the repeat offender's workload: the
// paper-scale replicate count, resubmitted faster than any reasonable
// per-user budget refills.
func overloadHeavySubmission(seed int64) workload.Submission {
	sub := overloadSubmission(0, 0, seed)
	sub.Replicates = overloadHeavyReps
	sub.UserEmail = "heavy@overload.example.edu"
	return sub
}

// overloadOutcome is one cluster run's collected evidence.
type overloadOutcome struct {
	enqueued     int // generator + heavy submissions offered
	batches      int // submissions accepted through the door
	shedQuota    int
	shedOverload int
	shedEvents   int // StageShed journal events
	completed    int // grid jobs
	failed       int
	breakerTrips int
	preDone      int // batches finished before the spike
	postDone     int // batches finished at or after spike start
	lastDone     sim.Time
	p99Wait      float64 // front-door wait, interpolated from buckets
	conserved    bool
	digest       string
}

// overloadArrivals installs shard k's self-scheduling arrival process
// on that shard's engine: a fixed interarrival gap divided by the
// demand factor the fault injector's hook drives. No randomness — the
// arrival sequence is a pure function of the virtual clock, so sheds
// replay bit-identically.
func overloadArrivals(l *core.Lattice, k int, seed int64, count *int) {
	factor := 1.0
	if l.Faults != nil {
		l.Faults.AttachDemand("portal-demand", func(f float64) { factor = f })
	}
	origin := shard.Origin(k, "core")
	i := 0
	var tick func()
	tick = func() {
		if l.Engine.Now() >= sim.Time(overloadHorizon) {
			return
		}
		sub := overloadSubmission(i, k, seed)
		if err := l.Service.EnqueueBatchOrigin(sub, origin, nil); err != nil {
			l.Service.NoteIngestErr(fmt.Errorf("experiments: overload arrival %d: %w", i, err))
		}
		*count++
		i++
		l.Engine.Schedule(overloadBaseGap/sim.Duration(factor), tick)
	}
	l.Engine.ScheduleAt(0, tick)
}

// overloadRun pushes the spiked workload through a cluster of the
// given shard count and collects the outcome.
func overloadRun(seed int64, shards int, protected bool) (*overloadOutcome, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Shards:      shards,
		Share:       shard.SharePartition,
		Base:        overloadFederation(seed, protected),
		ShardFaults: overloadFaults,
	})
	if err != nil {
		return nil, err
	}
	out := &overloadOutcome{}
	perShard := make([]int, shards)
	for k, l := range c.Shards {
		overloadArrivals(l, k, seed, &perShard[k])
	}
	// The heavy user hammers shard 0 from the end of warmup on.
	for at := sim.Time(overloadWarmup); at < sim.Time(overloadHorizon); at = at.Add(overloadHeavyEvery) {
		at := at
		c.Shards[0].Engine.ScheduleAt(at, func() {
			sub := overloadHeavySubmission(seed)
			if err := c.Shards[0].Service.EnqueueBatchOrigin(sub, shard.Origin(0, "core"), nil); err != nil {
				c.Shards[0].Service.NoteIngestErr(fmt.Errorf("experiments: heavy arrival: %w", err))
			}
			perShard[0]++
		})
	}
	deadline := sim.Time(10 * sim.Day)
	for {
		scaleStep(c)
		if overloadDone(c) {
			break
		}
		if c.Shards[0].Engine.Now() >= deadline {
			return nil, fmt.Errorf("experiments: overload run (%d shards, protected=%v) not done after 10 virtual days", shards, protected)
		}
	}
	for k, l := range c.Shards {
		if errs := l.Service.IngestErrors(); len(errs) > 0 {
			return nil, fmt.Errorf("experiments: shard %d deferred ingest error: %w", k, errs[0])
		}
	}

	// Conservation including sheds: every offered submission reached
	// exactly one terminal — an accepted batch (itself done, with every
	// job's journal terminal exactly once) or a journaled shed.
	out.conserved = true
	spikeStart := sim.Time(overloadWarmup)
	for k, l := range c.Shards {
		q, o := l.Service.Sheds()
		out.shedQuota += q
		out.shedOverload += o
		ids := l.Service.Batches()
		out.batches += len(ids)
		out.enqueued += perShard[k]
		if len(ids)+q+o != perShard[k] {
			out.conserved = false
		}
		for _, ev := range l.Obs.Journal.Events() {
			if ev.Stage == obs.StageShed {
				out.shedEvents++
			}
		}
		for _, n := range l.Obs.Journal.TerminalCounts() {
			if n != 1 {
				out.conserved = false
			}
		}
		st := l.Scheduler.Stats()
		out.completed += st.Completed
		out.failed += st.Failed
		out.breakerTrips += st.BreakerTrips
		for _, id := range ids {
			bst, err := l.Service.Status(id)
			if err != nil {
				return nil, err
			}
			if !bst.Done {
				return nil, fmt.Errorf("experiments: batch %s not done at collection", id)
			}
			if bst.DoneAt < spikeStart {
				out.preDone++
			} else {
				out.postDone++
			}
			if bst.DoneAt > out.lastDone {
				out.lastDone = bst.DoneAt
			}
		}
	}
	if out.shedEvents != out.shedQuota+out.shedOverload {
		out.conserved = false
	}
	out.p99Wait = overloadP99(c, "lattice_gsbl_ingest_wait_seconds")
	out.digest = c.Digest()
	return out, nil
}

// overloadDone reports whether every shard has passed the arrival
// horizon, drained its front door, and finished every grid job.
func overloadDone(c *core.Cluster) bool {
	for _, l := range c.Shards {
		if l.Engine.Now() < sim.Time(overloadHorizon) {
			return false
		}
		if l.Service.IngestDepth() != 0 {
			return false
		}
		st := l.Scheduler.Stats()
		if st.Completed+st.Failed < st.Submitted {
			return false
		}
	}
	return true
}

// overloadP99 estimates the 99th-percentile observation of a merged
// histogram by linear interpolation inside the bucket the percentile
// lands in. The +Inf bucket yields its lower bound (no upper edge to
// interpolate toward).
func overloadP99(c *core.Cluster, name string) float64 {
	for _, s := range c.MergedSnapshot() {
		if s.Name != name || s.Count == 0 {
			continue
		}
		target := 0.99 * float64(s.Count)
		lo, cumPrev := 0.0, 0.0
		for _, b := range s.Buckets {
			cum := float64(b.Count)
			if cum >= target {
				inBucket := cum - cumPrev
				if inBucket <= 0 || b.UpperBound > 1e18 {
					return lo
				}
				return lo + (target-cumPrev)/inBucket*(b.UpperBound-lo)
			}
			lo, cumPrev = b.UpperBound, cum
		}
		return lo
	}
	return 0
}

// OverloadPoint is one configuration's measurement.
type OverloadPoint struct {
	Shards    int
	Protected bool
	// Submission accounting: Enqueued == Batches + ShedQuota +
	// ShedOverload when Conserved.
	Enqueued     int
	Batches      int
	ShedQuota    int
	ShedOverload int
	// Grid-job terminals across accepted batches.
	Completed int
	Failed    int
	// BreakerTrips counts circuit-breaker opens across shards.
	BreakerTrips int
	// PreRatePerHour is batch completions per virtual hour before the
	// spike; SpikeRatePerHour the same measured from spike start to the
	// last completion. GoodputRatio = Spike/Pre.
	PreRatePerHour   float64
	SpikeRatePerHour float64
	GoodputRatio     float64
	// P99FrontDoorWaitSeconds is the interpolated 99th-percentile
	// virtual wait from submission arrival to coordinator drain.
	P99FrontDoorWaitSeconds float64
	// Conserved reports submission conservation including sheds plus
	// exactly-one-terminal for every journaled job.
	Conserved bool
	// TwinMatch reports a same-seed twin produced the bit-identical
	// cluster digest (always false for the single baseline run).
	TwinMatch bool
	Digest    string
}

// OverloadResult is the full experiment: protected twin runs at 1 and
// 4 shards plus the unprotected 1-shard baseline.
type OverloadResult struct {
	Points   []OverloadPoint // protected, shards 1 and 4
	Baseline OverloadPoint   // unprotected, 1 shard
	// GoodputOK reports every protected point kept goodput at ≥ 90% of
	// its pre-spike rate.
	GoodputOK bool
	// P99Blowup is the baseline's p99 front-door wait over the
	// protected 1-shard run's; P99BlowupOK reports it reached 10×.
	P99Blowup   float64
	P99BlowupOK bool
	Rows        [][]string
}

func overloadPointOf(shards int, protected bool, o *overloadOutcome) OverloadPoint {
	p := OverloadPoint{
		Shards:                  shards,
		Protected:               protected,
		Enqueued:                o.enqueued,
		Batches:                 o.batches,
		ShedQuota:               o.shedQuota,
		ShedOverload:            o.shedOverload,
		Completed:               o.completed,
		Failed:                  o.failed,
		BreakerTrips:            o.breakerTrips,
		P99FrontDoorWaitSeconds: o.p99Wait,
		Conserved:               o.conserved,
		Digest:                  o.digest,
	}
	warmupH := sim.Duration(overloadWarmup).Hours()
	p.PreRatePerHour = float64(o.preDone) / warmupH
	if span := o.lastDone.Sub(sim.Time(overloadWarmup)).Hours(); span > 0 {
		p.SpikeRatePerHour = float64(o.postDone) / span
	}
	if p.PreRatePerHour > 0 {
		p.GoodputRatio = p.SpikeRatePerHour / p.PreRatePerHour
	}
	return p
}

// OverloadScenario runs the full overload experiment: protected
// same-seed twins at 1 and 4 shards, then the unprotected baseline at
// 1 shard under the identical spiked workload.
func OverloadScenario(seed int64) (*OverloadResult, error) {
	r := &OverloadResult{GoodputOK: true}
	for _, n := range []int{1, 4} {
		first, err := overloadRun(seed, n, true)
		if err != nil {
			return nil, err
		}
		twin, err := overloadRun(seed, n, true)
		if err != nil {
			return nil, err
		}
		p := overloadPointOf(n, true, first)
		p.TwinMatch = first.digest == twin.digest
		if p.GoodputRatio < 0.9 {
			r.GoodputOK = false
		}
		r.Points = append(r.Points, p)
	}
	base, err := overloadRun(seed, 1, false)
	if err != nil {
		return nil, err
	}
	r.Baseline = overloadPointOf(1, false, base)
	if protP99 := r.Points[0].P99FrontDoorWaitSeconds; protP99 > 0 {
		r.P99Blowup = r.Baseline.P99FrontDoorWaitSeconds / protP99
	}
	r.P99BlowupOK = r.P99Blowup >= 10
	for _, p := range append(append([]OverloadPoint{}, r.Points...), r.Baseline) {
		mode := "protected"
		if !p.Protected {
			mode = "baseline"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Shards),
			mode,
			fmt.Sprintf("%d", p.Enqueued),
			fmt.Sprintf("%d", p.Batches),
			fmt.Sprintf("%d/%d", p.ShedQuota, p.ShedOverload),
			fmt.Sprintf("%.2f", p.GoodputRatio),
			fmt.Sprintf("%.0f s", p.P99FrontDoorWaitSeconds),
			fmt.Sprintf("%d", p.BreakerTrips),
			pass(p.Conserved),
			pass(p.TwinMatch || !p.Protected),
		})
	}
	return r, nil
}

func (r *OverloadResult) String() string {
	s := fmt.Sprintf("Overload — %.0f× demand spike through 1- and 4-shard clusters (protected twins + unprotected baseline)\n", overloadFactor)
	s += table([]string{"shards", "mode", "offered", "accepted", "shed q/o", "goodput", "p99-wait", "breaker-trips", "conserved", "twin"}, r.Rows)
	s += fmt.Sprintf("goodput with shedding ≥ 90%% of pre-spike rate: %s\n", pass(r.GoodputOK))
	s += fmt.Sprintf("baseline p99 front-door wait / protected: %.1f× (≥ 10×: %s)\n", r.P99Blowup, pass(r.P99BlowupOK))
	return s
}
