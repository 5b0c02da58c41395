package core

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"lattice/internal/sim"
	"lattice/internal/wal"
)

// RecoveryReport summarizes what Recover rebuilt.
type RecoveryReport struct {
	// SnapshotSeq is the snapshot the rebuild verified against (0 when
	// the run crashed before its first snapshot).
	SnapshotSeq uint64
	// TailRecords is how many post-snapshot log records were verified.
	TailRecords int
	// TornTail reports that the final log record was truncated
	// mid-write and dropped.
	TornTail bool
	// Watermark is the virtual time the rebuild resumed at.
	Watermark sim.Time
	// Inputs is how many submissions/registrations were re-injected.
	Inputs int
	// Records is the total durable record count at resume.
	Records uint64
}

// Recover resumes a deployment from the durable state in dir. The
// simulation's machine state — event queues, half-run batches, host
// populations — is closures and heaps that no snapshot could capture
// faithfully; what recovery relies on instead is that the whole
// coordinator is deterministic per seed. It rebuilds the deployment
// from cfg, re-injects every logged input at its recorded virtual
// time, and re-executes up to the durable frontier. The regenerated
// record stream is verified against the log record-for-record (and
// against the snapshot's aggregates at the snapshot point), so any
// divergence — config drift, code drift, corruption — fails loudly
// instead of silently forking history. On success the directory is
// reset to a fresh snapshot at the frontier and the deployment
// continues live, mid-batch, with crashes re-armed.
//
// When dir holds no durable state, Recover is New with cfg.Durable
// set to dir.
func Recover(dir string, cfg Config) (*Lattice, error) {
	st, err := wal.Load(dir)
	if err != nil {
		return nil, err
	}
	cfg.Durable = dir
	if st == nil {
		return New(cfg)
	}
	if st.Seed != cfg.Seed {
		return nil, fmt.Errorf("core: durable state in %s was written with seed %d, config has seed %d", dir, st.Seed, cfg.Seed)
	}

	l, err := build(cfg, true)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(l.Engine, cfg.Seed)
	rec.keep = true
	rec.stopAt = st.LastSeq
	if st.Snap != nil {
		rec.captureAt = st.Snap.Seq
	}
	l.wireDurable(rec)
	rec.begin()
	if err := l.Portal.SetArtifactDir(filepath.Join(dir, "artifacts")); err != nil {
		return nil, err
	}

	if err := l.replay(st); err != nil {
		return nil, err
	}
	if err := l.verifyRebuild(st); err != nil {
		return nil, err
	}

	// The rebuilt state becomes the new durable baseline: fresh
	// snapshot at the frontier, empty log, crashes re-armed.
	lg, err := wal.Reset(dir, rec.snapshot(), cfg.WAL)
	if err != nil {
		return nil, err
	}
	rec.endRebuild()
	rec.attachLog(lg)
	if l.Faults != nil {
		l.Faults.SetCrashStops(true)
	}
	l.Recovery = &RecoveryReport{
		TailRecords: len(st.Tail),
		TornTail:    st.Torn,
		Watermark:   st.Watermark,
		Inputs:      len(st.Inputs()),
		Records:     rec.count,
	}
	if st.Snap != nil {
		l.Recovery.SnapshotSeq = st.Snap.Seq
	}
	return l, nil
}

// replay re-executes the run: inputs recorded before the engine ever
// stepped are applied first (exactly as they originally interleaved
// with time-zero work), then each remaining input is applied after
// draining the engine through its recorded time — the same
// drain-then-apply the original caller performed. Back-to-back inputs
// at the same instant are re-applied back-to-back without running the
// engine between them. The final drain runs to the durable watermark;
// the recorder halts the engine once the last durable record has been
// regenerated.
func (l *Lattice) replay(st *wal.State) error {
	inputs := st.Inputs()
	i := 0
	for ; i < len(inputs) && inputs[i].Pre; i++ {
		if err := l.applyInput(inputs[i]); err != nil {
			return err
		}
	}
	// The remaining inputs were originally recorded after the engine
	// had stepped; mark the recorder so re-applying them between
	// engine runs (possibly before this engine's first step) re-emits
	// them without the Pre flag, exactly as the live run did.
	l.rec.setNotPre(true)
	prevAt := sim.Time(math.Inf(-1))
	for ; i < len(inputs); i++ {
		r := inputs[i]
		if r.At != prevAt {
			l.Engine.RunUntil(r.At)
		}
		if err := l.applyInput(r); err != nil {
			return err
		}
		prevAt = r.At
	}
	l.rec.setNotPre(false)
	l.Engine.RunUntil(st.Watermark)
	return nil
}

// applyInput re-injects one logged input through the path it
// originally arrived by — the paths differ in bookkeeping (portal
// ownership) and RNG side effects (core's reference fork), so the
// origin label picks the exact same code path.
func (l *Lattice) applyInput(r wal.Record) error {
	switch r.Kind {
	case wal.KindUser:
		l.Portal.RestoreUser(r.Token, r.Email)
		return nil
	case wal.KindWorkflow:
		if r.WF == nil {
			return fmt.Errorf("core: workflow record %d has no payload", r.Seq)
		}
		if _, err := l.SubmitWorkflow(*r.WF); err != nil {
			return fmt.Errorf("core: replaying workflow record %d: %w", r.Seq, err)
		}
		return nil
	case wal.KindSubmission:
		if r.Sub == nil {
			return fmt.Errorf("core: submission record %d has no payload", r.Seq)
		}
		var err error
		switch {
		case r.Origin == "portal":
			// Portal submissions replay through the portal so batch
			// ownership is restored when the front door accepts them;
			// admission rejections re-shed deterministically and are
			// not replay errors.
			_, _, err = l.Portal.Submit(*r.Sub)
		case r.Queued:
			// The record marks an ingest enqueue; re-enqueueing it
			// re-emits the same durable record and re-execution
			// regenerates the drain-time scheduling.
			err = l.Service.EnqueueBatchOrigin(*r.Sub, r.Origin, nil)
		case r.Origin == "core":
			_, err = l.SubmitSubmission(*r.Sub)
		default:
			_, err = l.Service.SubmitBatchOrigin(*r.Sub, r.Origin)
		}
		if err != nil {
			return fmt.Errorf("core: replaying submission record %d: %w", r.Seq, err)
		}
		return nil
	}
	return fmt.Errorf("core: cannot replay record %d of kind %q", r.Seq, r.Kind)
}

// verifyRebuild checks the regenerated record stream against the
// durable history: every logged record must have been re-emitted
// field-for-field at the same sequence number, and the snapshot's
// aggregates must match the rebuild's state at the snapshot point.
// This is what turns "deterministic re-execution" from an assumption
// into an invariant.
func (l *Lattice) verifyRebuild(st *wal.State) error {
	rec := l.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.count < st.LastSeq {
		return fmt.Errorf("core: recovery diverged: regenerated %d of %d durable records", rec.count, st.LastSeq)
	}
	if st.Snap != nil {
		if rec.captured == nil {
			return fmt.Errorf("core: recovery never reached snapshot seq %d", st.Snap.Seq)
		}
		if err := snapshotsEqual(rec.captured, st.Snap); err != nil {
			return fmt.Errorf("core: recovery diverged from snapshot at seq %d: %w", st.Snap.Seq, err)
		}
		// Cross-check the rebuilt journal itself against the
		// snapshot's recorded prefix digest.
		d, err := l.Obs.Journal.DigestAt(st.Snap.JournalLen)
		if err != nil {
			return fmt.Errorf("core: recovery journal check: %w", err)
		}
		if d != st.Snap.JournalDigest {
			return fmt.Errorf("core: rebuilt journal prefix digest %s != snapshot %s", d, st.Snap.JournalDigest)
		}
	}
	for _, want := range st.Tail {
		if want.Seq == 0 || want.Seq > uint64(len(rec.memory)) {
			return fmt.Errorf("core: recovery diverged: log record %d was never regenerated", want.Seq)
		}
		got := rec.memory[want.Seq-1]
		if !recordsEqual(got, want) {
			return fmt.Errorf("core: recovery diverged at record %d: regenerated %s, log holds %s",
				want.Seq, mustJSON(got), mustJSON(want))
		}
	}
	return nil
}

// snapshotsEqual compares two snapshots via canonical JSON (maps
// marshal key-sorted; float64 round-trips exactly).
func snapshotsEqual(a, b *wal.Snapshot) error {
	x := *a
	y := *b
	// Version is stamped at write time; the captured twin never was.
	x.Version = 0
	y.Version = 0
	if mustJSON(x) != mustJSON(y) {
		return fmt.Errorf("rebuilt state %s != durable %s", mustJSON(x), mustJSON(y))
	}
	return nil
}

func recordsEqual(a, b wal.Record) bool {
	return mustJSON(a) == mustJSON(b)
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<unencodable: %v>", err)
	}
	return string(data)
}
