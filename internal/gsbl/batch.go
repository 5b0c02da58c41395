package gsbl

import (
	"archive/zip"
	"bytes"
	"fmt"
	"sort"

	"lattice/internal/admit"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// BatchStatus summarizes a batch's progress.
type BatchStatus struct {
	ID        string
	Total     int
	Completed int
	Failed    int
	Pending   int
	Running   int
	Done      bool
	CreatedAt sim.Time
	DoneAt    sim.Time
}

// Batch tracks one portal submission through the grid.
type Batch struct {
	ID         string
	Submission workload.Submission
	// Origin labels the path the submission arrived through: "service",
	// "portal", "core", or "<run>/<stage>" for a workflow stage batch.
	Origin    string
	Jobs      []*metasched.GridJob
	CreatedAt sim.Time
	DoneAt    sim.Time
	done      bool
	// onDone fires once when the batch reaches its terminal state;
	// the workflow engine uses it to advance the stage graph.
	onDone func(BatchStatus)
}

// Service is the grid-services facade: it validates submissions,
// expands them into grid jobs via the meta-scheduler, tracks batches,
// notifies users, and packages results.
type Service struct {
	eng     *sim.Engine
	sched   *metasched.Scheduler
	mailer  *Mailer
	rng     *sim.RNG
	batches map[string]*Batch
	nextID  int
	// idPrefix qualifies batch IDs ("shard0-batch-000001") so a
	// cluster front router can attribute an ID to its coordinator
	// shard; empty for single-coordinator deployments.
	idPrefix string
	obs      *obs.Obs
	durable  Durability

	// Serialized front-door state (see ingest.go). admit is the
	// front-door queue: arrival order by default, fair share with
	// quotas and shedding once SetAdmit installs protection.
	ingest         IngestConfig
	admit          *admit.Controller
	serving        bool
	busyUntil      sim.Time
	ingestDepth    int
	ingestErrs     []error
	ingestInsCache *ingestIns
	shedQuota      int
	shedOverload   int
}

// Durability is the write-ahead-log hook for submissions entering the
// coordinator. The submission is recorded after validation and before
// any scheduling side effect, so a recovered run can re-inject it and
// regenerate everything downstream. queued marks a record from the
// serialized ingest path: it is an *enqueue* — recovery re-enqueues it
// and re-execution regenerates the drain-time scheduling.
type Durability interface {
	Submission(at sim.Time, origin string, sub workload.Submission, queued bool)
}

// SetDurable installs the durability hook (nil disables it).
func (s *Service) SetDurable(d Durability) { s.durable = d }

// SetIDPrefix qualifies every subsequently created batch ID with a
// prefix. Call before the first submission; existing IDs are not
// rewritten.
func (s *Service) SetIDPrefix(p string) { s.idPrefix = p }

// SetObs wires the facade to an observability hub: validation becomes
// a journal event and each batch gets a root trace span covering
// submission to last terminal job.
func (s *Service) SetObs(o *obs.Obs) { s.obs = o }

// NewService wires the facade.
func NewService(eng *sim.Engine, sched *metasched.Scheduler, mailer *Mailer, rng *sim.RNG) *Service {
	return &Service{
		eng:     eng,
		sched:   sched,
		mailer:  mailer,
		rng:     rng,
		batches: make(map[string]*Batch),
		admit:   new(admit.Controller),
	}
}

// Validate runs the GARLI validation pre-pass applied "before any jobs
// are scheduled … to ensure there are no problems with the data files
// and parameters specified".
func (s *Service) Validate(sub *workload.Submission) error {
	return sub.Validate()
}

// SubmitBatchOrigin validates and schedules a submission synchronously.
// On completion of every replicate the user is emailed and results
// become downloadable. The origin label ("service", "portal", "core")
// names the path the submission arrived through. The durability layer
// records the label so recovery can re-inject each submission through
// the same path — paths differ in bookkeeping (portal ownership) and
// RNG side effects (core's reference fork).
func (s *Service) SubmitBatchOrigin(sub workload.Submission, origin string) (*Batch, error) {
	if err := s.Validate(&sub); err != nil {
		return nil, err
	}
	if s.durable != nil {
		// Record the input exactly as it arrived (before BatchTag
		// assignment mutates it).
		s.durable.Submission(s.eng.Now(), origin, sub, false)
	}
	return s.submit(sub, origin,
		fmt.Sprintf("%d replicates for %s", sub.Replicates, sub.UserEmail), nil)
}

// submit is the shared accept path: batch bookkeeping, trace root,
// validation journal event, scheduler expansion, submission mail.
func (s *Service) submit(sub workload.Submission, origin, validateDetail string, onDone func(BatchStatus)) (*Batch, error) {
	s.nextID++
	b := &Batch{
		ID:         fmt.Sprintf("%sbatch-%06d", s.idPrefix, s.nextID),
		Submission: sub,
		Origin:     origin,
		CreatedAt:  s.eng.Now(),
		onDone:     onDone,
	}
	// Root the batch's trace before any job span, and journal the
	// validation pre-pass (batch-level event, no job ID).
	s.obs.Root(b.ID)
	s.obs.Record(b.ID, "", obs.StageValidate, "", validateDetail)
	sub.BatchTag = b.ID
	jobs, err := s.sched.SubmitBatch(&sub, s.rng, func(j *metasched.GridJob) { s.jobDone(b, j) })
	if err != nil {
		return nil, err
	}
	b.Jobs = jobs
	s.batches[b.ID] = b
	s.mailer.Send(s.eng.Now(), sub.UserEmail,
		fmt.Sprintf("[Lattice] %s submitted", b.ID),
		fmt.Sprintf("Your submission of %d replicates was accepted as %s (%d grid jobs).",
			sub.Replicates, b.ID, len(jobs)))
	return b, nil
}

// RunStage implements the workflow engine's Runner contract
// (internal/dag): a ready stage becomes an ordinary batch whose origin
// ("<run>/<stage>") names the workflow run and stage, and the stage
// advances when the batch is terminal. A stage batch is derived from
// an input the durability layer already witnessed, so it is
// deliberately *not* recorded as a WAL input: crash recovery
// re-injects the workflow itself, and deterministic re-execution
// regenerates every stage submission; recording both would
// double-inject on replay.
func (s *Service) RunStage(runID, stageID string, sub workload.Submission, done func(completed, failed int)) (string, error) {
	if err := s.Validate(&sub); err != nil {
		return "", err
	}
	origin := runID + "/" + stageID
	b, err := s.submit(sub, origin,
		fmt.Sprintf("%d replicates for %s via %s", sub.Replicates, sub.UserEmail, origin),
		func(st BatchStatus) { done(st.Completed, st.Failed) })
	if err != nil {
		return "", err
	}
	return b.ID, nil
}

// jobDone handles a terminal job state and fires batch-level events.
func (s *Service) jobDone(b *Batch, j *metasched.GridJob) {
	if j.Status == metasched.StatusFailed {
		s.mailer.Send(s.eng.Now(), b.Submission.UserEmail,
			fmt.Sprintf("[Lattice] job failure in %s", b.ID),
			fmt.Sprintf("Job %s failed: %s", j.Desc.JobID, j.FailReason))
	}
	st := s.status(b)
	if st.Done && !b.done {
		b.done = true
		b.DoneAt = s.eng.Now()
		s.obs.Root(b.ID).End()
		s.mailer.Send(s.eng.Now(), b.Submission.UserEmail,
			fmt.Sprintf("[Lattice] %s complete", b.ID),
			fmt.Sprintf("All %d jobs finished (%d completed, %d failed). Results are ready for download.",
				st.Total, st.Completed, st.Failed))
		if b.onDone != nil {
			b.onDone(st)
		}
	}
}

// Batch returns a batch by ID.
func (s *Service) Batch(id string) (*Batch, bool) {
	b, ok := s.batches[id]
	return b, ok
}

// Batches lists batch IDs in creation order.
func (s *Service) Batches() []string {
	ids := make([]string, 0, len(s.batches))
	for id := range s.batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Status reports batch progress.
func (s *Service) Status(id string) (BatchStatus, error) {
	b, ok := s.batches[id]
	if !ok {
		return BatchStatus{}, fmt.Errorf("gsbl: unknown batch %s", id)
	}
	return s.status(b), nil
}

func (s *Service) status(b *Batch) BatchStatus {
	st := BatchStatus{ID: b.ID, Total: len(b.Jobs), CreatedAt: b.CreatedAt, DoneAt: b.DoneAt}
	for _, j := range b.Jobs {
		switch j.Status {
		case metasched.StatusCompleted:
			st.Completed++
		case metasched.StatusFailed:
			st.Failed++
		case metasched.StatusRunning:
			st.Running++
		default:
			st.Pending++
		}
	}
	st.Done = st.Completed+st.Failed == st.Total
	return st
}

// CancelBatch cancels every non-terminal job of a batch.
func (s *Service) CancelBatch(id string) error {
	b, ok := s.batches[id]
	if !ok {
		return fmt.Errorf("gsbl: unknown batch %s", id)
	}
	for _, j := range b.Jobs {
		s.sched.Cancel(j.Desc.JobID)
	}
	return nil
}

// ResultsZip packages a finished batch's outputs into one zip archive,
// the post-processing step the portal serves for download. Each job
// contributes its result files; a batch-level summary is included.
func (s *Service) ResultsZip(id string) ([]byte, error) {
	b, ok := s.batches[id]
	if !ok {
		return nil, fmt.Errorf("gsbl: unknown batch %s", id)
	}
	st := s.status(b)
	if !st.Done {
		return nil, fmt.Errorf("gsbl: batch %s still has %d jobs outstanding", id, st.Pending+st.Running)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	summary := &bytes.Buffer{}
	fmt.Fprintf(summary, "batch: %s\nreplicates: %d\njobs: %d\ncompleted: %d\nfailed: %d\n",
		b.ID, b.Submission.Replicates, st.Total, st.Completed, st.Failed)
	fmt.Fprintf(summary, "submitted_at: %.0f\nfinished_at: %.0f\n",
		float64(b.CreatedAt), float64(b.DoneAt))
	for _, j := range b.Jobs {
		name := j.Desc.JobID
		if j.Status == metasched.StatusCompleted {
			w, err := zw.Create(name + ".best.tre")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(w, "# best tree for %s (searchreps=%d) from resource %s\n",
				name, j.Spec.SearchReps, j.Resource); err != nil {
				return nil, err
			}
			lw, err := zw.Create(name + ".screen.log")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(lw, "job %s\nresource %s\nattempts %d\nwall_seconds %.0f\n",
				name, j.Resource, j.Attempts, float64(j.CompletedAt.Sub(j.StartedAt))); err != nil {
				return nil, err
			}
		} else {
			w, err := zw.Create(name + ".FAILED")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(w, "%s\n", j.FailReason); err != nil {
				return nil, err
			}
		}
	}
	w, err := zw.Create("batch_summary.txt")
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(summary.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
