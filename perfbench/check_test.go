package main

import (
	"fmt"
	"testing"

	"lattice/internal/core"
	"lattice/internal/gsbl"
	"lattice/internal/shard"
	"lattice/internal/sim"
)

// runSmallCluster drives three single-replicate users through a
// 1-shard cluster and returns the collector the flood workload would
// use.
func runSmallCluster(t *testing.T) (*core.Cluster, *gridCollect) {
	t.Helper()
	cfg := floodFederation(3)
	cfg.Resources = cfg.Resources[:2]
	c, err := core.NewCluster(core.ClusterConfig{Shards: 1, Share: shard.SharePartition, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	g := &gridCollect{lats: c.Shards, keyOf: func(b *gsbl.Batch) (string, bool) {
		return b.Submission.UserEmail, true
	}}
	f, err := newFlood(3)
	if err != nil {
		t.Fatal(err)
	}
	sub := f.(*flood).subs
	for i := 0; i < 3; i++ {
		at := sim.Time(sim.Duration(i) * sim.Minute)
		c.ScheduleSubmission(at, sub[i])
		g.offers = append(g.offers, offer{at: at, key: sub[i].UserEmail})
	}
	if err := pumpCluster(&iteration{}, c, g, sim.Day); err != nil {
		t.Fatal(err)
	}
	return c, g
}

func newTestIteration() *iteration {
	return &iteration{e2e: map[string]float64{}, tails: map[string]timing{}, layer: map[string]float64{}}
}

func failedChecks(it *iteration) []string {
	var out []string
	for _, c := range it.checks {
		if !c.ok {
			out = append(out, fmt.Sprintf("%s: %s", c.name, c.detail))
		}
	}
	return out
}

func TestConservationHolds(t *testing.T) {
	_, g := runSmallCluster(t)
	it := newTestIteration()
	if err := g.collect(it); err != nil {
		t.Fatal(err)
	}
	if bad := failedChecks(it); len(bad) > 0 || it.failed != 0 {
		t.Fatalf("checks failed on a clean run: %v (failed ops %d)", bad, it.failed)
	}
	if it.ops != 3 || it.e2e["shed_ratio"] != 0 || it.e2e["makespan_h"] <= 0 {
		t.Fatalf("ops %d, e2e %v", it.ops, it.e2e)
	}
}

func TestConservationCatchesLostSubmission(t *testing.T) {
	_, g := runSmallCluster(t)
	// An offer the deployment never saw: no batch, no shed.
	g.offers = append(g.offers, offer{at: 0, key: "lost@example.edu"})
	it := newTestIteration()
	if err := g.collect(it); err != nil {
		t.Fatal(err)
	}
	bad := failedChecks(it)
	if len(bad) != 1 || it.failed != 1 {
		t.Fatalf("want exactly the submission-conservation check to fail with one failed op, got %v (failed ops %d)", bad, it.failed)
	}
}

func TestConservationCatchesDoubleAcceptance(t *testing.T) {
	_, g := runSmallCluster(t)
	// Every batch maps to one key: two batches claim the same offer.
	g.keyOf = func(*gsbl.Batch) (string, bool) { return g.offers[0].key, true }
	it := newTestIteration()
	if err := g.collect(it); err != nil {
		t.Fatal(err)
	}
	if len(failedChecks(it)) == 0 {
		t.Fatal("double acceptance went unnoticed")
	}
}
