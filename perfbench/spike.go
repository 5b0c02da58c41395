package main

import (
	"bytes"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"time"

	"lattice/internal/admit"
	"lattice/internal/core"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/shard"
	"lattice/internal/sim"
)

// portal-spike: a 1-shard cluster with admission control on (token
// buckets, fair-share queue, bounded queue, circuit breakers) and the
// WAL off. Every submission is a multipart POST with a FASTA upload to
// /garli/create through the in-process Cluster.Handler. Seeded Poisson
// arrivals (a fixed count per phase) run at a base rate for an hour,
// at ten times that rate for an hour while one heavy user resubmits a
// large batch every ten minutes, then at the base rate again. Mid-spike one resource's
// gatekeeper refuses submits and its capacity collapses. An operator
// scrapes /metrics every virtual hour. Most of the spike is refused
// (429) or queued (202) rather than accepted.
const (
	spikeBaseGap   = 5 * sim.Second // mean base interarrival: 720/h, a quarter of the door's capacity
	spikeFactor    = 10.0
	spikePhase     = sim.Hour
	spikeHeavyGap  = 10 * sim.Minute
	spikeHeavyReps = 240
	spikeHeavyUser = "heavy@spike.example.edu"
)

type spikeArrival struct {
	at     sim.Time
	email  string
	reps   int
	upload int
}

type spike struct {
	seed     int64
	arrivals []spikeArrival
	uploads  [][]byte // FASTA files
	cluster  *core.Cluster
	handler  http.Handler
	grid     *gridCollect

	body       bytes.Buffer
	createWall []float64
	status     map[int]int
	scrapeS    float64
	scrapeLen  int
}

func newSpike(seed int64) (instance, error) {
	s := &spike{seed: seed}
	rng := sim.NewRNG(seed).Stream("perfbench-spike")
	for _, shape := range spikeUploadShapes {
		fasta, err := simulatedFASTA(shape[0], shape[1], rng)
		if err != nil {
			return nil, err
		}
		s.uploads = append(s.uploads, fasta)
	}
	perHour := int(sim.Hour / spikeBaseGap)
	phases := []struct {
		from sim.Time
		n    int
	}{
		{0, perHour},
		{sim.Time(spikePhase), int(spikeFactor) * perHour},
		{sim.Time(2 * spikePhase), perHour},
	}
	for _, ph := range phases {
		for _, t := range poissonArrivals(rng, ph.n, ph.from, spikePhase) {
			i := len(s.arrivals)
			s.arrivals = append(s.arrivals, spikeArrival{
				at: t, email: fmt.Sprintf("s%05d@spike.example.edu", i), reps: 1, upload: rng.Intn(len(s.uploads)),
			})
		}
	}
	for j, t := 0, sim.Time(spikePhase); t < sim.Time(2*spikePhase); j, t = j+1, t.Add(spikeHeavyGap) {
		// Distinct replicate counts tell the heavy user's batches apart.
		s.arrivals = append(s.arrivals, spikeArrival{at: t, email: spikeHeavyUser, reps: spikeHeavyReps + j, upload: 0})
	}
	sort.SliceStable(s.arrivals, func(i, j int) bool { return s.arrivals[i].at < s.arrivals[j].at })
	return s, nil
}

// spikeUploadShapes are the (taxa, sites) of the FASTA files users
// upload; their contents are simulated from the seed.
var spikeUploadShapes = [][2]int{{8, 200}, {10, 300}, {12, 400}, {14, 500}, {16, 600}, {20, 300}, {24, 400}, {12, 250}}

// simulatedFASTA simulates a nucleotide alignment on a random tree
// and renders it as a FASTA upload.
func simulatedFASTA(taxa, sites int, rng *sim.RNG) ([]byte, error) {
	model, err := phylo.NewHKY85(2.0, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		return nil, err
	}
	rates, err := phylo.NewSiteRates(phylo.RateGamma, 0.5, 0, 4)
	if err != nil {
		return nil, err
	}
	tree := phylo.RandomTree(phylo.TaxonNames(taxa), 0.05, rng)
	al, err := phylo.SimulateAlignment(tree, model, rates, sites, rng)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := al.WriteFASTA(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// spikeFederation is eight identical PBS clusters behind the
// admission-controlled front door, with circuit breakers.
func spikeFederation(seed int64) core.Config {
	var res []core.ResourceSpec
	for i := 0; i < 8; i++ {
		res = append(res, core.ResourceSpec{
			Kind: "pbs", Name: fmt.Sprintf("pbs%02d", i), Nodes: 32, Speed: 2.0, MemMB: 8192,
		})
	}
	sched := metasched.DefaultConfig()
	sched.BundleTargetSeconds = 0
	sched.BreakerThreshold = 5
	sched.BreakerCooldown = 10 * sim.Minute
	return core.Config{
		Seed:      seed,
		Scheduler: sched,
		Resources: res,
		Ingest:    gsbl.IngestConfig{PerSubmissionSeconds: 1.0, PerReplicateSeconds: 0.25},
		Admit: admit.Config{
			UserRatePerHour:  720,
			UserBurst:        300,
			MaxQueueDepth:    512,
			MaxQueuedSeconds: 120,
		},
	}
}

// spikeFaults is the mid-spike brownout on the shard's first resource.
func spikeFaults(int) *faults.Schedule {
	return &faults.Schedule{Events: []faults.Event{
		{At: sim.Time(spikePhase + 20*sim.Minute), Kind: faults.KindSubmitFail,
			Resource: "pbs00", Duration: 10 * sim.Minute, P: 1.0},
		{At: sim.Time(spikePhase + 25*sim.Minute), Kind: faults.KindCapacityCollapse,
			Resource: "pbs00", Duration: 15 * sim.Minute, Factor: 0.5},
	}}
}

func (s *spike) setup(it *iteration) error {
	var err error
	it.tr.do("core.new_cluster", func() {
		s.cluster, err = core.NewCluster(core.ClusterConfig{
			Shards:      1,
			Share:       shard.SharePartition,
			Base:        spikeFederation(s.seed),
			ShardFaults: spikeFaults,
		})
	})
	if err != nil {
		return err
	}
	s.handler = s.cluster.Handler()
	return nil
}

func (s *spike) run(it *iteration) error {
	c := s.cluster
	s.grid = &gridCollect{lats: c.Shards, keyOf: func(b *gsbl.Batch) (string, bool) {
		return spikeKey(b.Submission.UserEmail, b.Submission.Replicates), true
	}}
	s.createWall = s.createWall[:0]
	s.status = map[int]int{}
	s.scrapeS, s.scrapeLen = 0, 0
	hour := sim.Time(sim.Hour)
	for _, a := range s.arrivals {
		for hour <= a.at {
			s.advance(it, hour)
			hour = hour.Add(sim.Hour)
		}
		it.tr.do("sim.run_until", func() { c.RunUntil(a.at) })
		if err := s.create(it, a); err != nil {
			return err
		}
		it.lap()
	}
	for ; ; hour = hour.Add(sim.Hour) {
		s.advance(it, hour)
		if clusterDone(c) {
			return nil
		}
		if hour > sim.Time(10*sim.Day) {
			return fmt.Errorf("spike not done after 10 virtual days")
		}
	}
}

// advance runs the cluster to an hour boundary, samples the front
// door and scrapes /metrics as an operator would.
func (s *spike) advance(it *iteration, at sim.Time) {
	it.tr.do("sim.run_until", func() { s.cluster.RunUntil(at) })
	s.grid.sampleDepth()
	it.lap()
	t0 := time.Now()
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	s.scrapeS += time.Since(t0).Seconds()
	s.scrapeLen = rec.Body.Len()
}

// create POSTs one submission form and records the handler's wall
// latency and status.
func (s *spike) create(it *iteration, a spikeArrival) error {
	s.body.Reset()
	mw := multipart.NewWriter(&s.body)
	for _, kv := range [][2]string{
		{"email", a.email},
		{"replicates", strconv.Itoa(a.reps)},
		{"datatype", "nucleotide"},
		{"ratematrix", "HKY"},
		{"ratehetmodel", "gamma"},
		{"numratecats", "4"},
		{"attachmentspertaxon", "8"},
	} {
		if err := mw.WriteField(kv[0], kv[1]); err != nil {
			return err
		}
	}
	fw, err := mw.CreateFormFile("datafile", "data.fasta")
	if err != nil {
		return err
	}
	if _, err := fw.Write(s.uploads[a.upload]); err != nil {
		return err
	}
	if err := mw.Close(); err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, "/garli/create", bytes.NewReader(s.body.Bytes()))
	req.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	t0 := time.Now()
	it.tr.begin("portal.create")
	s.handler.ServeHTTP(rec, req)
	it.tr.end()
	s.createWall = append(s.createWall, time.Since(t0).Seconds()*1000)
	s.status[rec.Code]++
	return nil
}

func spikeKey(email string, reps int) string { return email + "/" + strconv.Itoa(reps) }

func (s *spike) collect(it *iteration) error {
	for _, a := range s.arrivals {
		s.grid.offers = append(s.grid.offers, offer{at: a.at, key: spikeKey(a.email, a.reps)})
	}
	if err := s.grid.collect(it); err != nil {
		return err
	}
	it.digest = journalDigest(s.cluster.Shards)
	t := summarize(s.createWall)
	it.e2e["portal_p50_ms"] = t.P50
	it.e2e["portal_tail_ms"] = t.Tail
	it.tails["portal_tail_ms"] = t
	other4xx := 0
	for code, n := range s.status {
		if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
			other4xx += n
		}
	}
	it.check("portal answers", other4xx == 0 && s.status[http.StatusInternalServerError] == 0,
		"status counts %v", s.status)
	it.layer["portal.create_calls"] = float64(len(s.createWall))
	it.layer["portal.create_busy_s"] = it.tr.busy("portal.create")
	it.layer["portal.status_202"] = float64(s.status[http.StatusAccepted])
	it.layer["portal.status_429"] = float64(s.status[http.StatusTooManyRequests])
	it.layer["portal.status_4xx"] = float64(other4xx)
	it.layer["portal.metrics_scrape_s"] = s.scrapeS
	it.layer["portal.metrics_bytes"] = float64(s.scrapeLen)
	// The portal is the accept path here: each POST reaches gsbl's
	// admission-controlled door from inside the handler.
	it.layer["gsbl.accept_calls"] = it.layer["portal.create_calls"]
	it.layer["gsbl.accept_busy_s"] = it.layer["portal.create_busy_s"]
	return nil
}

func (s *spike) teardown() error {
	s.cluster, s.handler, s.grid = nil, nil, nil
	return nil
}
