package gsbl

import (
	"archive/zip"
	"bytes"
	"strings"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/pbs"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func testService(t *testing.T) (*sim.Engine, *Service, *Mailer) {
	t.Helper()
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := pbs.New(eng, pbs.Config{
		Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []pbs.NodeClass{{Count: 16, Speed: 1.5, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := metasched.New(eng, idx, metasched.DefaultConfig())
	if err := sched.Register(hpc, 1.5); err != nil {
		t.Fatal(err)
	}
	mailer := &Mailer{}
	svc := NewService(eng, sched, mailer, sim.NewRNG(1))
	return eng, svc, mailer
}

func smallSubmission(replicates int) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: 12, SeqLength: 500, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10,
			Seed: 7,
		},
		Replicates: replicates,
		UserEmail:  "researcher@example.edu",
	}
}

func TestGarliAppXMLRoundTrip(t *testing.T) {
	app := GarliApp()
	data, err := app.XML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseAppDescription(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "garli" || len(back.Params) != len(app.Params) {
		t.Errorf("round trip lost content: %s, %d params", back.Name, len(back.Params))
	}
	p, ok := back.Param("ratehetmodel")
	if !ok || len(p.Options) != 3 {
		t.Errorf("ratehetmodel parameter mangled: %+v", p)
	}
	if _, err := ParseAppDescription([]byte("<gridApplication></gridApplication>")); err == nil {
		t.Error("expected error for unnamed app")
	}
	if _, err := ParseAppDescription([]byte("not xml")); err == nil {
		t.Error("expected error for invalid XML")
	}
}

func TestBatchLifecycle(t *testing.T) {
	eng, svc, mailer := testService(t)
	b, err := svc.SubmitBatchOrigin(smallSubmission(8), "service")
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 {
		t.Fatalf("batch has %d jobs, want 8", st.Total)
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	st, _ = svc.Status(b.ID)
	if !st.Done || st.Completed != 8 {
		t.Fatalf("batch not finished: %+v", st)
	}
	// Submission + completion notifications.
	msgs := mailer.SentTo("researcher@example.edu")
	if len(msgs) < 2 {
		t.Fatalf("got %d notifications, want >= 2", len(msgs))
	}
	if !strings.Contains(msgs[len(msgs)-1].Subject, "complete") {
		t.Errorf("last notification subject %q", msgs[len(msgs)-1].Subject)
	}
}

func TestValidationRejectsBadSubmission(t *testing.T) {
	_, svc, _ := testService(t)
	bad := smallSubmission(0)
	if _, err := svc.SubmitBatchOrigin(bad, "service"); err == nil {
		t.Error("zero-replicate submission accepted")
	}
	bad = smallSubmission(5)
	bad.Spec.NumTaxa = 1
	if _, err := svc.SubmitBatchOrigin(bad, "service"); err == nil {
		t.Error("1-taxon submission accepted")
	}
	bad = smallSubmission(workload.MaxReplicates + 1)
	if _, err := svc.SubmitBatchOrigin(bad, "service"); err == nil {
		t.Error("over-limit replicate count accepted")
	}
}

func TestResultsZip(t *testing.T) {
	eng, svc, _ := testService(t)
	b, err := svc.SubmitBatchOrigin(smallSubmission(5), "service")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ResultsZip(b.ID); err == nil {
		t.Error("zip available before batch finished")
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	data, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range zr.File {
		names[f.Name] = true
	}
	if !names["batch_summary.txt"] {
		t.Error("zip missing batch summary")
	}
	tre, logs := 0, 0
	for n := range names {
		if strings.HasSuffix(n, ".best.tre") {
			tre++
		}
		if strings.HasSuffix(n, ".screen.log") {
			logs++
		}
	}
	if tre != 5 || logs != 5 {
		t.Errorf("zip has %d tree files and %d logs, want 5 each", tre, logs)
	}
}

func TestCancelBatch(t *testing.T) {
	eng, svc, _ := testService(t)
	sub := smallSubmission(4)
	sub.Spec.NumTaxa = 80
	sub.Spec.SeqLength = 3000 // long jobs
	b, err := svc.SubmitBatchOrigin(sub, "service")
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(5 * sim.Minute))
	if err := svc.CancelBatch(b.ID); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Day))
	st, _ := svc.Status(b.ID)
	if st.Completed != 0 {
		t.Errorf("%d jobs completed despite cancellation", st.Completed)
	}
	if !st.Done {
		t.Errorf("cancelled batch not terminal: %+v", st)
	}
	if err := svc.CancelBatch("nope"); err == nil {
		t.Error("cancel of unknown batch succeeded")
	}
}

func TestUnknownBatchQueries(t *testing.T) {
	_, svc, _ := testService(t)
	if _, err := svc.Status("nope"); err == nil {
		t.Error("status of unknown batch succeeded")
	}
	if _, err := svc.ResultsZip("nope"); err == nil {
		t.Error("zip of unknown batch succeeded")
	}
	if _, ok := svc.Batch("nope"); ok {
		t.Error("lookup of unknown batch succeeded")
	}
}

func TestBatchesSorted(t *testing.T) {
	_, svc, _ := testService(t)
	for i := 0; i < 3; i++ {
		if _, err := svc.SubmitBatchOrigin(smallSubmission(1), "service"); err != nil {
			t.Fatal(err)
		}
	}
	ids := svc.Batches()
	if len(ids) != 3 {
		t.Fatalf("got %d batches", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("batch IDs not sorted")
		}
	}
}
