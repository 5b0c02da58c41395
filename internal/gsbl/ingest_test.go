package gsbl

import (
	"strings"
	"testing"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// recordedInput is one durable input the fake hook saw.
type recordedInput struct {
	at     sim.Time
	origin string
	queued bool
	sub    workload.Submission
}

// fakeDurable captures durability-hook calls.
type fakeDurable struct{ inputs []recordedInput }

func (f *fakeDurable) Submission(at sim.Time, origin string, sub workload.Submission, queued bool) {
	f.inputs = append(f.inputs, recordedInput{at: at, origin: origin, queued: queued, sub: sub})
}

// TestIngestDisabledIsSynchronous checks the zero-value config takes
// the pre-scale-out path: the submission schedules on arrival and the
// durable record is a plain (non-queued) input.
func TestIngestDisabledIsSynchronous(t *testing.T) {
	_, svc, _ := testService(t)
	d := &fakeDurable{}
	svc.SetDurable(d)

	var got *Batch
	if err := svc.EnqueueBatchOrigin(smallSubmission(3), "shard0/core", func(b *Batch, err error) {
		if err != nil {
			t.Fatalf("onAccepted error: %v", err)
		}
		got = b
	}); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("disabled ingest did not accept synchronously")
	}
	if len(got.Jobs) != 3 {
		t.Fatalf("batch has %d jobs, want 3", len(got.Jobs))
	}
	if len(d.inputs) != 1 || d.inputs[0].queued {
		t.Fatalf("durable record wrong: %+v", d.inputs)
	}
}

// TestIngestSerializesSubmissions checks the throughput model: each
// submission occupies the front door for its virtual cost, arrivals
// while busy queue FIFO, the depth tracks the backlog, and every
// enqueue is durably recorded at arrival with the Queued mark.
func TestIngestSerializesSubmissions(t *testing.T) {
	eng, svc, _ := testService(t)
	d := &fakeDurable{}
	svc.SetDurable(d)
	svc.SetIngest(IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 1})

	var acceptedAt []sim.Time
	onAccepted := func(b *Batch, err error) {
		if err != nil {
			t.Fatalf("deferred accept error: %v", err)
		}
		acceptedAt = append(acceptedAt, eng.Now())
	}
	// Three 2-replicate submissions at t=0: each costs 12 virtual
	// seconds, so drains land at 12, 24, 36.
	for i := 0; i < 3; i++ {
		sub := smallSubmission(2)
		if err := svc.EnqueueBatchOrigin(sub, "shard0/core", onAccepted); err != nil {
			t.Fatal(err)
		}
	}
	if svc.IngestDepth() != 3 {
		t.Fatalf("depth = %d after three enqueues, want 3", svc.IngestDepth())
	}
	if len(svc.Batches()) != 0 {
		t.Fatal("batches created before the front door drained")
	}
	eng.RunUntil(sim.Time(13))
	if svc.IngestDepth() != 2 {
		t.Fatalf("depth = %d at t=13, want 2", svc.IngestDepth())
	}
	eng.RunUntil(sim.Time(100))
	if svc.IngestDepth() != 0 {
		t.Fatalf("depth = %d after drain, want 0", svc.IngestDepth())
	}
	if len(acceptedAt) != 3 {
		t.Fatalf("%d accepts, want 3", len(acceptedAt))
	}
	wantDrain := []sim.Time{12, 24, 36}
	for i, at := range acceptedAt {
		if at != wantDrain[i] {
			t.Errorf("accept %d at t=%v, want %v", i, at, wantDrain[i])
		}
	}
	if len(svc.Batches()) != 3 {
		t.Fatalf("%d batches after drain, want 3", len(svc.Batches()))
	}
	for i, in := range d.inputs {
		if !in.queued {
			t.Errorf("input %d not marked queued", i)
		}
		if in.at != 0 {
			t.Errorf("input %d recorded at t=%v, want arrival time 0", i, in.at)
		}
		if in.origin != "shard0/core" {
			t.Errorf("input %d origin %q", i, in.origin)
		}
	}
	if errs := svc.IngestErrors(); len(errs) != 0 {
		t.Fatalf("unexpected ingest errors: %v", errs)
	}
}

// TestIngestUnprotectedServesArrivalOrder pins the front door with the
// ingest model on and no admission protection: a heavy user's backlog
// drains before a light user who arrived behind it — arrival order,
// never fair share — and the accepted counter counts at drain, not at
// enqueue.
func TestIngestUnprotectedServesArrivalOrder(t *testing.T) {
	eng, svc, _ := testService(t)
	hub := obs.New(eng)
	svc.SetObs(hub)
	svc.SetIngest(IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 1})
	accepted := func() float64 {
		for _, s := range hub.Registry.Snapshot() {
			if s.Name == "lattice_gsbl_ingest_accepted_total" {
				return s.Value
			}
		}
		return 0
	}
	var order []string
	accept := func(user string) func(*Batch, error) {
		return func(b *Batch, err error) {
			if err != nil {
				t.Fatalf("accept for %s: %v", user, err)
			}
			order = append(order, user)
		}
	}
	// Three 41 s heavy submissions, then one 2 s light one: fair share
	// would serve the light user second.
	for i := 0; i < 3; i++ {
		if err := svc.EnqueueBatchOrigin(userSubmission("heavy@x", 40), "service", accept("heavy")); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.EnqueueBatchOrigin(userSubmission("light@x", 1), "service", accept("light")); err != nil {
		t.Fatal(err)
	}
	if got := accepted(); got != 0 {
		t.Fatalf("accepted counter = %v before any drain, want 0", got)
	}
	eng.RunUntil(sim.Time(41))
	if got := accepted(); got != 1 {
		t.Fatalf("accepted counter = %v after the first drain, want 1", got)
	}
	eng.RunUntil(sim.Time(sim.Hour))
	want := []string{"heavy", "heavy", "heavy", "light"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("drain order %v, want arrival order %v", order, want)
	}
	if got := accepted(); got != 4 {
		t.Fatalf("accepted counter = %v after all drains, want 4", got)
	}
	if q, o := svc.Sheds(); q != 0 || o != 0 {
		t.Fatalf("unprotected door shed: quota=%d overload=%d", q, o)
	}
}

// TestIngestValidationSynchronous checks a bad submission is rejected
// at enqueue time, before any durable record or queue state.
func TestIngestValidationSynchronous(t *testing.T) {
	_, svc, _ := testService(t)
	d := &fakeDurable{}
	svc.SetDurable(d)
	svc.SetIngest(IngestConfig{PerSubmissionSeconds: 10})

	bad := smallSubmission(1)
	bad.UserEmail = ""
	if err := svc.EnqueueBatchOrigin(bad, "shard0/core", nil); err == nil {
		t.Fatal("invalid submission accepted")
	}
	if len(d.inputs) != 0 {
		t.Fatal("invalid submission durably recorded")
	}
	if svc.IngestDepth() != 0 {
		t.Fatal("invalid submission queued")
	}
}

// TestIngestIDPrefix checks prefixed batch identity survives the
// ingest path.
func TestIngestIDPrefix(t *testing.T) {
	eng, svc, _ := testService(t)
	svc.SetIDPrefix("shard2-")
	svc.SetIngest(IngestConfig{PerSubmissionSeconds: 5})
	var got *Batch
	if err := svc.EnqueueBatchOrigin(smallSubmission(1), "shard2/core", func(b *Batch, err error) {
		got = b
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(10))
	if got == nil || got.ID != "shard2-batch-000001" {
		t.Fatalf("batch ID = %+v, want shard2-batch-000001", got)
	}
}
