package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"lattice/internal/phylo"
	"lattice/internal/sim"
)

func TestAttributeModule(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "lattice/internal/obs.(*Journal).Record", "lattice/internal/sim.(*Engine).RunUntil"}, "obs"},
		{[]string{"lattice/internal/lrm/pbs.(*Cluster).Submit", "lattice/internal/metasched.(*Scheduler).dispatch"}, "lrm"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "lattice/internal/wal.(*Log).Append"}, "wal"},
		{[]string{"lattice/internal/grid/mds.(*Index).Publish"}, "grid"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.bgsweep"}, "gc"},
		{[]string{"main.(*spike).create", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := attributeModule(c.stack); got != c.want {
			t.Errorf("attributeModule(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestParseCPUProfile profiles a likelihood loop and checks the decoded
// samples attribute the time to phylo.
func TestParseCPUProfile(t *testing.T) {
	rng := sim.NewRNG(1)
	m, err := phylo.NewJC69()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := phylo.RandomTree(phylo.TaxonNames(16), 0.1, rng)
	al, err := phylo.SimulateAlignment(tree, m, rs, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := al.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lk, err := phylo.NewLikelihood(pd, m, rs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		lk.LogLikelihood(tree)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no CPU samples collected")
	}
	// The loop's time must land on phylo, ahead of every other module.
	// (Samples in the race detector's C runtime carry no Go frames and
	// count as other, so the share of phylo itself is not pinned.)
	by := cpuByModule(samples)
	for mod, secs := range by {
		if mod != "phylo" && mod != "other" && mod != "gc" && secs >= by["phylo"] {
			t.Fatalf("module %s (%.3f s) outranks phylo (%.3f s): %v", mod, secs, by["phylo"], by)
		}
	}
	if by["phylo"] == 0 {
		t.Fatalf("no samples attributed to phylo: %v", by)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
}
