package gsbl

import (
	"fmt"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// IngestConfig models the coordinator's front-door throughput: the
// paper's submission point is one process that validates, stages and
// registers every batch serially, so at portal scale the accept path
// itself becomes the bottleneck long before the federation runs out
// of CPUs. Each accepted submission occupies the coordinator for
// PerSubmissionSeconds plus PerReplicateSeconds per replicate of
// virtual time; submissions arriving while the coordinator is busy
// wait in the front-door queue, an admit.Controller that serves them
// in arrival order unless SetAdmit installs overload protection. The
// zero value disables the model entirely — submissions schedule
// synchronously on arrival, the pre-scale-out behaviour, bit-identical
// to builds without the ingest path.
type IngestConfig struct {
	// PerSubmissionSeconds is the fixed virtual cost of accepting one
	// submission (validation, staging, batch registration).
	PerSubmissionSeconds float64
	// PerReplicateSeconds is the marginal virtual cost per replicate
	// (input fan-out, per-job registration).
	PerReplicateSeconds float64
}

// Enabled reports whether the ingest model is active.
func (c IngestConfig) Enabled() bool {
	return c.PerSubmissionSeconds > 0 || c.PerReplicateSeconds > 0
}

// cost returns the coordinator occupancy of one submission.
func (c IngestConfig) cost(sub *workload.Submission) sim.Duration {
	return sim.Duration(c.PerSubmissionSeconds + c.PerReplicateSeconds*float64(sub.Replicates))
}

// ingestIns caches the ingest instrument handles.
type ingestIns struct {
	depth    *obs.Gauge
	wait     *obs.Histogram
	accepted *obs.Counter
}

// SetIngest installs the front-door throughput model. Call before the
// first submission; changing the model mid-run would break replay
// determinism.
func (s *Service) SetIngest(cfg IngestConfig) { s.ingest = cfg }

// IngestDepth reports how many accepted submissions are queued behind
// the coordinator's front door right now.
func (s *Service) IngestDepth() int { return s.ingestDepth }

// IngestErrors returns deferred scheduling failures of drained
// submissions (most recent last); empty means every drained
// submission expanded cleanly.
func (s *Service) IngestErrors() []error { return s.ingestErrs }

// EnqueueBatchOrigin is the scale-out accept path: the submission is
// validated and durably recorded immediately (the enqueue is the
// input — a crash loses nothing that was accepted), then expanded
// into grid jobs when the serialized coordinator front door reaches
// it on the virtual clock. onAccepted, when non-nil, fires at drain
// time with the created batch or the deferred scheduling error, or
// with an *admit.Rejection when the admission layer sheds the
// submission. With the ingest model disabled this is
// SubmitBatchOrigin plus a synchronous callback.
func (s *Service) EnqueueBatchOrigin(sub workload.Submission, origin string, onAccepted func(*Batch, error)) error {
	if !s.ingest.Enabled() {
		b, err := s.SubmitBatchOrigin(sub, origin)
		if err != nil {
			return err
		}
		if onAccepted != nil {
			onAccepted(b, nil)
		}
		return nil
	}
	if err := s.Validate(&sub); err != nil {
		return err
	}
	now := s.eng.Now()
	if s.durable != nil {
		// The enqueue is the durable input: recovery re-enqueues it at
		// this virtual time and deterministic re-execution regenerates
		// the drain, the batch, and everything downstream. Recorded
		// before the admission decision so a shed submission replays
		// and deterministically re-sheds.
		s.durable.Submission(now, origin, sub, true)
	}
	// Charge the user's quota, tag the entry into the queue, shed from
	// the low-share end while the queue exceeds its bounds, and start
	// serving if the door is idle. Sheds are decisions, not inputs.
	if rej := s.admit.TakeQuota(sub.UserEmail, float64(sub.Replicates), now); rej != nil {
		s.shed(&sub, origin, rej, onAccepted)
		return nil
	}
	item := &ingestItem{sub: sub, origin: origin, arrived: now, onAccepted: onAccepted}
	s.admit.Push(sub.UserEmail, s.ingest.cost(&sub).Seconds(), item)
	s.ingestDepth++
	for {
		victim, rej := s.admit.Overflow(s.busySeconds(now))
		if victim == nil {
			break
		}
		v := victim.Payload.(*ingestItem)
		s.ingestDepth--
		s.shed(&v.sub, v.origin, rej, v.onAccepted)
	}
	if ins := s.ingestInstruments(); ins != nil {
		ins.depth.Set(float64(s.ingestDepth))
	}
	s.serve(now)
	return nil
}

// ingestItem carries a queued submission's context through the
// front-door queue.
type ingestItem struct {
	sub        workload.Submission
	origin     string
	arrived    sim.Time
	onAccepted func(*Batch, error)
}

// busySeconds is the remaining front-door occupancy of the entry in
// service, the fixed part of the projected wait.
func (s *Service) busySeconds(now sim.Time) float64 {
	if !s.serving || s.busyUntil <= now {
		return 0
	}
	return s.busyUntil.Sub(now).Seconds()
}

// serve starts serving the next queued entry when the door is idle;
// each completion expands the submission and chains to the next entry.
func (s *Service) serve(now sim.Time) {
	if s.serving {
		return
	}
	e := s.admit.Pop()
	if e == nil {
		return
	}
	item := e.Payload.(*ingestItem)
	s.serving = true
	done := now.Add(sim.Duration(e.Cost))
	s.busyUntil = done
	s.eng.ScheduleAt(done, func() {
		s.serving = false
		s.ingestDepth--
		if ins := s.ingestInstruments(); ins != nil {
			ins.depth.Set(float64(s.ingestDepth))
			ins.wait.Observe(float64(s.eng.Now().Sub(item.arrived)))
			ins.accepted.Inc()
		}
		b, err := s.submit(item.sub, item.origin, ingestDetail(&item.sub), nil)
		if err != nil {
			s.noteIngestErr(err)
		}
		if item.onAccepted != nil {
			item.onAccepted(b, err)
		}
		s.serve(s.eng.Now())
	})
}

func ingestDetail(sub *workload.Submission) string {
	return fmt.Sprintf("%d replicates for %s (ingest-drained)", sub.Replicates, sub.UserEmail)
}

// ingestInstruments lazily builds the instrument handles once an obs
// hub is wired; nil (a no-op) before that.
func (s *Service) ingestInstruments() *ingestIns {
	if s.ingestInsCache != nil {
		return s.ingestInsCache
	}
	if s.obs == nil {
		return nil
	}
	s.ingestInsCache = &ingestIns{
		depth: s.obs.Gauge("lattice_gsbl_ingest_depth",
			"Accepted submissions queued behind the coordinator front door"),
		wait: s.obs.Histogram("lattice_gsbl_ingest_wait_seconds",
			"Virtual seconds from submission arrival to coordinator drain", nil),
		accepted: s.obs.Counter("lattice_gsbl_ingest_accepted_total",
			"Submissions accepted through the serialized ingest path"),
	}
	return s.ingestInsCache
}

// NoteIngestErr records an asynchronous accept failure on behalf of a
// caller with no request to fail — the cluster's scheduled arrivals
// fire inside engine callbacks and report through here.
func (s *Service) NoteIngestErr(err error) { s.noteIngestErr(err) }

// noteIngestErr records a deferred scheduling failure, keeping the
// most recent ones (the drain runs inside a simulation callback with
// no caller to return an error to).
func (s *Service) noteIngestErr(err error) {
	const keep = 32
	if len(s.ingestErrs) >= keep {
		s.ingestErrs = s.ingestErrs[1:]
	}
	s.ingestErrs = append(s.ingestErrs, err)
	// The drain runs with no caller to return an error to: surface the
	// failure as a batch-level journal event (empty batch/job — the
	// batch was never created) and a counter, so operators see it
	// without polling IngestErrors.
	s.obs.Record("", "", obs.StageFail, "ingest", "deferred expansion failed: "+err.Error())
	s.obs.Counter("lattice_ingest_errors_total",
		"Deferred submission expansion failures at the ingest drain").Inc()
}
