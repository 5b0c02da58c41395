package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"lattice/internal/core"
	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// portal-flood: 3×10⁴ single-replicate users arriving as a seeded
// Poisson process over six virtual hours into a 2-shard cluster
// with a WAL per shard. The front door is priced at 1 s per submission
// plus 0.25 s per replicate, so each shard's door runs at about 85%
// utilisation: the ingest queue, validation, the journal, the WAL and
// the event loop do nearly all the work, and the estimator is off.
const (
	floodUsers  = 30000
	floodWindow = 6 * sim.Hour
	floodShards = 2
)

type flood struct {
	seed    int64
	at      []sim.Time
	subs    []workload.Submission
	cluster *core.Cluster
	grid    *gridCollect
}

func newFlood(seed int64) (instance, error) {
	f := &flood{seed: seed, at: poissonArrivals(sim.NewRNG(seed).Stream("perfbench-flood"), floodUsers, 0, floodWindow)}
	for i := range f.at {
		f.subs = append(f.subs, workload.Submission{
			Spec: workload.JobSpec{
				DataType: phylo.Nucleotide, SubstModel: "HKY85",
				RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
				NumTaxa: 12, SeqLength: 400, SearchReps: 1,
				StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 8, Seed: int64(i + 1),
			},
			Replicates: 1,
			UserEmail:  fmt.Sprintf("u%06d@flood.example.edu", i),
		})
	}
	return f, nil
}

// poissonArrivals returns n arrival times of a Poisson process over
// [from, from+window) conditioned on its count: sorted uniform draws.
// Fixing the count keeps every seed's run the same size, so seeds
// differ in arrival pattern and not in amount of work.
func poissonArrivals(rng *sim.RNG, n int, from sim.Time, window sim.Duration) []sim.Time {
	at := make([]sim.Time, n)
	for i := range at {
		at[i] = from.Add(sim.Duration(rng.Float64()) * window)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// floodFederation is sixteen identical PBS clusters, statically
// partitioned over the shards, so each shard has the same capacity and
// the grid never saturates.
func floodFederation(seed int64) core.Config {
	var res []core.ResourceSpec
	for i := 0; i < 16; i++ {
		res = append(res, core.ResourceSpec{
			Kind: "pbs", Name: fmt.Sprintf("pbs%02d", i), Nodes: 32, Speed: 2.0, MemMB: 8192,
		})
	}
	sched := metasched.DefaultConfig()
	sched.BundleTargetSeconds = 0 // one user is one grid job
	return core.Config{
		Seed:      seed,
		Scheduler: sched,
		Resources: res,
		Ingest:    gsbl.IngestConfig{PerSubmissionSeconds: 1.0, PerReplicateSeconds: 0.25},
	}
}

func (f *flood) setup(it *iteration) error {
	var err error
	it.tr.do("core.new_cluster", func() {
		f.cluster, err = core.NewCluster(core.ClusterConfig{
			Shards:      floodShards,
			Share:       shard.SharePartition,
			Base:        floodFederation(f.seed),
			DurableRoot: it.dir,
		})
	})
	return err
}

func (f *flood) run(it *iteration) error {
	c := f.cluster
	f.grid = &gridCollect{lats: c.Shards, keyOf: func(b *gsbl.Batch) (string, bool) {
		return b.Submission.UserEmail, true
	}}
	it.tr.begin("gsbl.accept")
	for i, sub := range f.subs {
		c.ScheduleSubmission(f.at[i], sub)
	}
	it.tr.end()
	it.lap()
	return pumpCluster(it, c, f.grid, 40*sim.Day)
}

// pumpStep is the virtual interval between pump boundaries: the
// driver advances the deployment one step at a time, samples the
// front door, and closes a run segment.
const pumpStep = 10 * sim.Minute

// pumpCluster advances a cluster step by step until every arrival is
// delivered, every front door is drained and every grid job is
// terminal.
func pumpCluster(it *iteration, c *core.Cluster, g *gridCollect, limit sim.Duration) error {
	for k := 1; ; k++ {
		at := sim.Time(sim.Duration(k) * pumpStep)
		it.tr.do("sim.run_until", func() { c.RunUntil(at) })
		g.sampleDepth()
		it.lap()
		if clusterDone(c) {
			return nil
		}
		if at >= sim.Time(limit) {
			return fmt.Errorf("cluster not done after %v", limit)
		}
	}
}

func clusterDone(c *core.Cluster) bool {
	if c.PendingArrivals() != 0 {
		return false
	}
	for _, l := range c.Shards {
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

func (f *flood) collect(it *iteration) error {
	c := f.cluster
	for i := range f.subs {
		f.grid.offers = append(f.grid.offers, offer{at: f.at[i], key: f.subs[i].UserEmail})
	}
	if err := f.grid.collect(it); err != nil {
		return err
	}
	it.digest = journalDigest(c.Shards)
	it.layer["gsbl.accept_calls"] = float64(len(f.subs))
	it.layer["gsbl.accept_busy_s"] = it.tr.busy("gsbl.accept")
	for k, l := range c.Shards {
		err := l.DurableErr()
		it.check("wal healthy", err == nil, "shard %d: %v", k, err)
	}
	if err := c.CloseDurable(); err != nil {
		return err
	}
	return walLayer(it, shardDirs(it.dir, floodShards))
}

func shardDirs(root string, n int) []string {
	var dirs []string
	for k := 0; k < n; k++ {
		dirs = append(dirs, filepath.Join(root, fmt.Sprintf("shard%d", k)))
	}
	return dirs
}

func (f *flood) teardown() error {
	var err error
	if f.cluster != nil {
		err = f.cluster.CloseDurable()
	}
	f.cluster, f.grid = nil, nil
	return err
}

// walLayer records the WAL's size on disk and its record count, read
// back with wal.Load, for the traced run.
func walLayer(it *iteration, dirs []string) error {
	if it.tr == nil {
		return nil
	}
	var bytes, records float64
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
				bytes += float64(fi.Size())
			}
		}
		st, err := wal.Load(d)
		if err != nil {
			return err
		}
		records += float64(st.LastSeq)
	}
	it.layer["wal.bytes"] = bytes
	it.layer["wal.records"] = records
	if records > 0 {
		it.layer["wal.bytes_per_record"] = bytes / records
	}
	return nil
}
