package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sync"

	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/wal"
	"lattice/internal/workload"
)

// recorder is the durability adapter between the live components and
// the write-ahead log. It implements the narrow Durability interfaces
// of obs (as the journal observer), metasched, boinc, gsbl and
// portal; owns record sequence numbering; and maintains the aggregate
// shadow state that snapshots capture — all from its own bookkeeping,
// never by calling back into the components (hook methods run under
// component locks, so re-entry would deadlock).
//
// The same type serves both modes: live (log attached, every record
// appended) and rebuild (during Recover: records kept in memory for
// verification against the log, with the engine stopped once the
// durable frontier is regenerated).
type recorder struct {
	mu   sync.Mutex
	eng  *sim.Engine
	seed int64
	log  *wal.Log // nil while rebuilding

	// Shadow aggregates, updated record by record.
	count      uint64
	journalLen int
	jhash      hash.Hash
	stability  map[string]float64
	boincState map[string]int
	users      map[string]string
	inputs     []wal.Record

	// Rebuild support.
	keep      bool         // retain every record in memory
	memory    []wal.Record // the regenerated stream, when keep
	captureAt uint64       // seq at which to capture a snapshot for verification
	captured  *wal.Snapshot
	stopAt    uint64 // stop the engine once count reaches this (0: never)
	// notPre marks the post-pre phase of replay: the inputs being
	// re-applied were originally recorded after the engine had
	// stepped, but replay applies them between engine runs — possibly
	// before the rebuilt engine's first step — so Steps()==0 must not
	// re-flag them as pre-run inputs.
	notPre bool
}

func newRecorder(eng *sim.Engine, seed int64) *recorder {
	return &recorder{
		eng:        eng,
		seed:       seed,
		jhash:      sha256.New(),
		stability:  make(map[string]float64),
		boincState: make(map[string]int),
		users:      make(map[string]string),
	}
}

// attachLog connects the recorder to a live log and registers the
// snapshot source. The source callback runs inside Log.Append — i.e.
// inside emit, with rec.mu already held — so it must use the unlocked
// snapshot form.
func (rec *recorder) attachLog(lg *wal.Log) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.log = lg
	lg.SetSnapshotSource(rec.snapshotLocked)
}

// begin emits the genesis record (sequence 1).
func (rec *recorder) begin() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{Kind: wal.KindGenesis, Seed: rec.seed})
}

// emit assigns the next sequence number, folds the record into the
// shadow aggregates, and forwards it to the log (live) or memory
// (rebuild). Callers hold rec.mu.
func (rec *recorder) emit(r wal.Record) {
	rec.count++
	r.Seq = rec.count
	switch r.Kind {
	case wal.KindStage:
		rec.journalLen++
		obs.HashEvent(rec.jhash, obs.Event{
			At: r.At, Batch: r.Batch, Job: r.Job,
			Stage: obs.Stage(r.Stage), Resource: r.Resource, Detail: r.Detail,
		})
	case wal.KindEWMA:
		rec.stability[r.Resource] = r.Value
	case wal.KindWorkunit:
		rec.boincState[r.State]++
	case wal.KindUser:
		rec.users[r.Token] = r.Email
	}
	if r.IsInput() {
		rec.inputs = append(rec.inputs, r)
	}
	if rec.keep {
		rec.memory = append(rec.memory, r)
	}
	if rec.captureAt != 0 && rec.count == rec.captureAt {
		s := rec.snapshotLocked()
		rec.captured = &s
	}
	if rec.log != nil {
		rec.log.Append(r)
	}
	if rec.stopAt != 0 && rec.count >= rec.stopAt {
		// The durable frontier is regenerated; halt the rebuild at the
		// next handler boundary. Records emitted between here and the
		// actual stop were never durable, but the fresh post-recovery
		// snapshot captures them, so nothing is lost or doubled.
		rec.eng.Stop()
	}
}

// snapshotLocked captures the aggregate state as a wal.Snapshot.
// Callers hold rec.mu.
func (rec *recorder) snapshotLocked() wal.Snapshot {
	return wal.Snapshot{
		Seq:           rec.count,
		At:            rec.eng.Now(),
		Seed:          rec.seed,
		JournalLen:    rec.journalLen,
		JournalDigest: hex.EncodeToString(rec.jhash.Sum(nil)),
		Stability:     copyMap(rec.stability),
		Boinc:         copyMap(rec.boincState),
		Users:         copyMap(rec.users),
		Inputs:        append([]wal.Record(nil), rec.inputs...),
	}
}

// snapshot is the locking wrapper around snapshotLocked.
func (rec *recorder) snapshot() wal.Snapshot {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.snapshotLocked()
}

// setNotPre toggles the replay marker (see the field comment).
func (rec *recorder) setNotPre(on bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.notPre = on
}

// isPre reports whether an input arriving now should carry the Pre
// mark: nothing has run yet, and we are not replaying inputs that
// originally arrived later. Callers hold rec.mu.
func (rec *recorder) isPre() bool {
	return rec.eng.Steps() == 0 && !rec.notPre
}

// endRebuild drops rebuild bookkeeping after verification.
func (rec *recorder) endRebuild() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.keep = false
	rec.memory = nil
	rec.captured = nil
	rec.captureAt = 0
	rec.stopAt = 0
}

func copyMap[V any](m map[string]V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Stage implements the obs journal observer. Called under the journal
// lock; the recorder never calls back into the journal.
func (rec *recorder) Stage(ev obs.Event) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{
		At: ev.At, Kind: wal.KindStage,
		Batch: ev.Batch, Job: ev.Job, Stage: string(ev.Stage),
		Resource: ev.Resource, Detail: ev.Detail,
	})
}

// EWMA implements metasched.Durability.
func (rec *recorder) EWMA(at sim.Time, resource string, stability float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{At: at, Kind: wal.KindEWMA, Resource: resource, Value: stability})
}

// Backoff implements metasched.Durability.
func (rec *recorder) Backoff(at sim.Time, job, resource string, attempt int, backoff sim.Duration) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{
		At: at, Kind: wal.KindBackoff, Job: job, Resource: resource,
		Attempt: attempt, Value: float64(backoff),
	})
}

// Workunit implements boinc.Durability.
func (rec *recorder) Workunit(at sim.Time, job, state, detail string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{At: at, Kind: wal.KindWorkunit, Job: job, State: state, Detail: detail})
}

// Submission implements gsbl.Durability. The Pre flag marks inputs
// that arrived before the engine ever stepped, which replay must
// apply before running any events. On the serialized ingest path the
// enqueue is the input, so the record carries the Queued mark that
// routes replay back through the ingest queue.
func (rec *recorder) Submission(at sim.Time, origin string, sub workload.Submission, queued bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := sub
	rec.emit(wal.Record{
		At: at, Kind: wal.KindSubmission, Origin: origin, Sub: &s, Queued: queued,
		Pre: rec.isPre(),
	})
}

// Workflow implements dag.Durability: the workflow is an input like a
// submission — stage batches derived from it are regenerated by
// re-execution and deliberately not recorded.
func (rec *recorder) Workflow(at sim.Time, wf workload.Workflow) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	w := wf
	rec.emit(wal.Record{
		At: at, Kind: wal.KindWorkflow, WF: &w,
		Pre: rec.isPre(),
	})
}

// User implements portal.Durability.
func (rec *recorder) User(at sim.Time, token, email string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.emit(wal.Record{
		At: at, Kind: wal.KindUser, Token: token, Email: email,
		Pre: rec.isPre(),
	})
}

// wireDurable connects a recorder to every component that records
// durable transitions. Called before any journal event is recorded,
// so the record stream starts at genesis in both live and rebuild
// modes.
func (l *Lattice) wireDurable(rec *recorder) {
	l.rec = rec
	l.Obs.Journal.SetObserver(rec.Stage)
	l.Scheduler.SetDurable(rec)
	l.Service.SetDurable(rec)
	l.Workflows.SetDurable(rec)
	l.Portal.SetDurable(rec)
	if l.Boinc != nil {
		l.Boinc.SetDurable(rec)
	}
}

// DurableErr reports the write-ahead log's sticky error, nil when
// durability is off or healthy.
func (l *Lattice) DurableErr() error {
	if l.rec == nil {
		return nil
	}
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	if l.rec.log == nil {
		return nil
	}
	return l.rec.log.Err()
}

// CloseDurable flushes and closes the write-ahead log. A crashed
// process never gets to call this — recovery does not depend on it.
func (l *Lattice) CloseDurable() error {
	if l.rec == nil {
		return nil
	}
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	if l.rec.log == nil {
		return nil
	}
	return l.rec.log.Close()
}
