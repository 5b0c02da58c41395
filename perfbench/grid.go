package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"lattice/internal/core"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// offer is one submission a grid workload offers the deployment.
type offer struct {
	at  sim.Time
	key string // matches the accepted batch, see gridCollect.keyOf
}

// gridCollect gathers what every grid workload reports from its
// coordinators after the run.
type gridCollect struct {
	lats   []*core.Lattice
	offers []offer
	// keyOf maps an accepted top-level batch back to its offer key;
	// ok=false marks a batch derived from a workflow stage.
	keyOf func(b *gsbl.Batch) (key string, ok bool)
	// workflowDone maps an offer key to its workflow's terminal time,
	// for offers that are workflows rather than batches.
	workflowDone map[string]sim.Time
	// peakDepth is the deepest front-door queue seen at a pump
	// boundary, summed over coordinators.
	peakDepth int
}

// collect fills the shared end-to-end and per-layer metrics and runs
// the conservation checks:
//   - job level: every journaled grid job has exactly one terminal;
//   - submission level: every offer ends as exactly one accepted batch
//     (or workflow) or one journaled shed, and every batch is done.
func (g *gridCollect) collect(it *iteration) error {
	var snaps [][]obs.SeriesSnapshot
	var submitted, completed, failed, shedQ, shedO, shedEvents, journal int
	var events uint64
	var jobsBad int
	done := map[string]sim.Time{}
	batchesPer := make([]float64, len(g.lats))
	stageBatches := 0
	ingestErrs := 0
	for k, l := range g.lats {
		// The collection an operator's tooling makes: the journal, its
		// conservation counts, the metric series and their exposition
		// text (rendered only to be timed).
		it.tr.begin("obs.collect")
		evs := l.Obs.Journal.Events()
		counts := l.Obs.Journal.TerminalCounts()
		snap := l.Obs.Registry.Snapshot()
		l.Obs.Exposition()
		it.tr.end()
		snaps = append(snaps, snap)
		journal += len(evs)
		events += l.Engine.Steps()
		for _, ev := range evs {
			if ev.Stage == obs.StageShed {
				shedEvents++
			}
		}
		for _, n := range counts {
			if n != 1 {
				jobsBad++
			}
		}
		st := l.Scheduler.Stats()
		submitted += st.Submitted
		completed += st.Completed
		failed += st.Failed
		q, o := l.Service.Sheds()
		shedQ += q
		shedO += o
		ingestErrs += len(l.Service.IngestErrors())
		for _, id := range l.Service.Batches() {
			b, _ := l.Service.Batch(id)
			bst, err := l.Service.Status(id)
			if err != nil {
				return err
			}
			if !bst.Done {
				return fmt.Errorf("batch %s not done at collection", id)
			}
			key, top := g.keyOf(b)
			if !top {
				stageBatches++
				continue
			}
			batchesPer[k]++
			if _, dup := done[key]; dup {
				it.check("submission conservation", false, "offer %s accepted twice", key)
			}
			done[key] = bst.DoneAt
		}
		it.layer["metasched.submitted"] += float64(st.Submitted)
		it.layer["metasched.completed"] += float64(st.Completed)
		it.layer["metasched.failed"] += float64(st.Failed)
		it.layer["metasched.retries"] += float64(st.Retries)
		it.layer["metasched.requeued"] += float64(st.Requeued)
		it.layer["metasched.submit_retries"] += float64(st.SubmitRetries)
		it.layer["metasched.breaker_trips"] += float64(st.BreakerTrips)
		it.layer["metasched.bundled"] += float64(st.Bundled)
		it.layer["dag.workflows"] += float64(len(l.Workflows.Runs()))
	}
	for key, at := range g.workflowDone {
		done[key] = at
	}

	it.check("job conservation", jobsBad == 0, "%d journaled jobs without exactly one terminal", jobsBad)
	it.check("grid jobs terminal", completed+failed == submitted, "%d completed + %d failed of %d submitted", completed, failed, submitted)
	it.check("shed journaled", shedEvents == shedQ+shedO, "%d shed events for %d sheds", shedEvents, shedQ+shedO)
	it.check("no ingest errors", ingestErrs == 0, "%d deferred ingest errors", ingestErrs)
	sheds := shedQ + shedO
	accepted := 0
	var first, last sim.Time = -1, 0
	var lat []float64
	for _, o := range g.offers {
		if first < 0 || o.at < first {
			first = o.at
		}
		at, ok := done[o.key]
		if !ok {
			continue
		}
		accepted++
		lat = append(lat, at.Sub(o.at).Hours())
		if at > last {
			last = at
		}
	}
	for _, at := range done {
		if at > last {
			last = at
		}
	}
	unaccounted := len(g.offers) - accepted - sheds
	it.check("submission conservation", unaccounted == 0 && len(done) == accepted,
		"%d offered = %d accepted + %d shed + %d unaccounted (%d terminal batches/workflows)",
		len(g.offers), accepted, sheds, unaccounted, len(done))
	it.ops += len(g.offers)
	if unaccounted > 0 {
		it.failed += unaccounted
	}

	makespan := last.Sub(first).Hours()
	t := summarize(lat)
	it.e2e["latency_p50_h"] = t.P50
	it.e2e["latency_tail_h"] = t.Tail
	it.tails["latency_tail_h"] = t
	it.e2e["makespan_h"] = makespan
	if makespan > 0 {
		it.e2e["goodput_per_h"] = float64(completed) / makespan
	}
	if submitted > 0 {
		it.e2e["failed_ratio"] = float64(failed) / float64(submitted)
	}
	it.e2e["shed_ratio"] = float64(sheds) / float64(len(g.offers))

	it.layer["admit.shed_quota"] = float64(shedQ)
	it.layer["admit.shed_overload"] = float64(shedO)
	it.layer["dag.stage_batches"] = float64(stageBatches)
	it.layer["gsbl.ingest_errors"] = float64(ingestErrs) + sumSeries(snaps, "lattice_ingest_errors_total")
	it.layer["gsbl.ingest_peak_depth"] = float64(g.peakDepth)
	it.layer["gsbl.ingest_wait_tail_s"] = histTail(mergeHist(snaps, "lattice_gsbl_ingest_wait_seconds")).Tail
	it.layer["metasched.place_wait_tail_s"] = histTail(mergeHist(snaps, "lattice_sched_placement_wait_seconds")).Tail
	it.layer["lrm.queue_wait_tail_s"] = histTail(mergeHist(snaps, "lattice_lrm_queue_wait_seconds")).Tail
	it.layer["lrm.preemptions"] = sumSeries(snaps, "lattice_lrm_preemptions_total")
	it.layer["boinc.issued"] = sumSeries(snaps, "lattice_boinc_results_issued_total")
	it.layer["boinc.reissues"] = sumSeries(snaps, "lattice_boinc_reissues_total")
	it.layer["boinc.late"] = sumSeries(snaps, "lattice_boinc_results_late_total")
	it.layer["boinc.deadline_misses"] = sumSeries(snaps, "lattice_boinc_deadline_misses_total")
	it.layer["faults.injected"] = sumSeries(snaps, "lattice_faults_injected_total")
	it.layer["sim.events"] = float64(events)
	it.layer["sim.busy_s"] = it.tr.busy("sim.run_until")
	if b := it.layer["sim.busy_s"]; b > 0 {
		it.layer["sim.events_per_s"] = float64(events) / b
	}
	it.layer["obs.journal_events"] = float64(journal)
	it.layer["obs.collect_s"] = it.tr.busy("obs.collect")
	maxB, sumB := 0.0, 0.0
	for _, n := range batchesPer {
		sumB += n
		if n > maxB {
			maxB = n
		}
	}
	if sumB > 0 {
		it.layer["shard.balance"] = maxB / (sumB / float64(len(batchesPer)))
	}
	return nil
}

// journalDigest folds the coordinators' journal digests into one, in
// coordinator order.
func journalDigest(lats []*core.Lattice) string {
	h := sha256.New()
	for _, l := range lats {
		fmt.Fprintln(h, l.Obs.Journal.Digest())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampleDepth samples the summed front-door depth into g.peakDepth.
func (g *gridCollect) sampleDepth() {
	d := 0
	for _, l := range g.lats {
		d += l.Service.IngestDepth()
	}
	if d > g.peakDepth {
		g.peakDepth = d
	}
}
