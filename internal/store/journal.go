package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the coordinator's durable placement log: one entry per epoch
// recording the placement plan in force (drpcluster's monitor) or being
// migrated to (drpnet's coordinator), so a process killed between epochs
// restarts from its last decision instead of re-seeding. Entries are
// self-contained (latest wins), which keeps the compaction protocol a
// single snapshot-then-truncate with no segment bookkeeping: replaying a
// stale record under a newer snapshot is a no-op.
type Journal struct {
	mu      sync.Mutex
	dir     string
	w       *wal
	obs     *instruments
	snapN   int
	appends int
	closed  bool

	epoch int
	plan  json.RawMessage // latest recorded placement plan
}

// journalEntry is one record (and the snapshot payload): a placement plan
// in its canonical encoding (see internal/plan) and the epoch it belongs to.
type journalEntry struct {
	Epoch int             `json:"epoch"`
	Plan  json.RawMessage `json:"plan,omitempty"`
}

// OpenJournal opens (or creates) the placement journal in dir. SnapshotEvery
// compacts the log every that many recorded epochs.
func OpenJournal(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	j := &Journal{
		dir:   dir,
		obs:   newInstruments(opts.Metrics),
		snapN: opts.SnapshotEvery,
	}
	if payload, err := readSnapshotFile(j.snapFile()); err == nil {
		if err := j.applyPayload(payload); err != nil {
			return nil, fmt.Errorf("store: journal snapshot: %w", err)
		}
	}
	every := opts.SyncEvery
	if opts.Sync == SyncInterval && every <= 0 {
		every = 64
	}
	w, err := openWAL(j.logFile(), opts.Sync, every, j.obs, j.applyPayload)
	if err != nil {
		return nil, err
	}
	j.w = w
	return j, nil
}

func (j *Journal) logFile() string  { return filepath.Join(j.dir, "journal.log") }
func (j *Journal) snapFile() string { return filepath.Join(j.dir, "journal.snap") }

// applyPayload replays one entry. A well-formed entry without a plan was
// written in the retired per-object replicator format; it aborts the open
// rather than let the caller mistake the journal for an empty one.
func (j *Journal) applyPayload(payload []byte) error {
	var e journalEntry
	if err := json.Unmarshal(payload, &e); err != nil {
		return fmt.Errorf("%w: %v", errCorruptRecord, err)
	}
	if e.Plan == nil {
		return fmt.Errorf("store: journal %s: the entry for epoch %d holds no placement plan (it predates the plan format); start from a fresh directory", j.dir, e.Epoch)
	}
	if e.Epoch >= j.epoch { // stale replays under a newer snapshot are no-ops
		j.epoch, j.plan = e.Epoch, e.Plan
	}
	return nil
}

// RecordPlan appends one placement plan in its canonical encoding,
// compacting per SnapshotEvery. A coordinator journals the *target* plan
// before executing a single migration step, so a restart mid-migration can
// diff the journaled intent against the sites' actual holdings and finish
// the remainder.
func (j *Journal) RecordPlan(epoch int, plan []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if len(plan) == 0 {
		return fmt.Errorf("store: journal: empty plan for epoch %d", epoch)
	}
	payload, err := json.Marshal(journalEntry{Epoch: epoch, Plan: json.RawMessage(plan)})
	if err != nil {
		return fmt.Errorf("store: journal encode: %w", err)
	}
	if err := j.w.append(payload); err != nil {
		return err
	}
	if epoch >= j.epoch {
		j.epoch = epoch
		j.plan = append(json.RawMessage(nil), plan...)
	}
	j.appends++
	if j.snapN > 0 && j.appends >= j.snapN {
		return j.compactLocked()
	}
	return nil
}

// LatestPlan returns the most recently journaled plan bytes; ok is false
// when no plan has been recorded.
func (j *Journal) LatestPlan() (epoch int, plan []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.plan == nil {
		return 0, nil, false
	}
	return j.epoch, append([]byte(nil), j.plan...), true
}

// compactLocked snapshots the latest entry and truncates the log. Crash
// windows: before the rename the old snapshot+log pair still recovers;
// after the rename but before the truncate the log replays entries the
// snapshot already covers, which latest-wins absorbs.
func (j *Journal) compactLocked() error {
	payload, err := json.Marshal(journalEntry{Epoch: j.epoch, Plan: j.plan})
	if err != nil {
		return fmt.Errorf("store: journal encode: %w", err)
	}
	n, err := writeSnapshotFile(j.snapFile(), payload)
	if err != nil {
		return err
	}
	if j.obs != nil {
		j.obs.snapshots.Inc()
		j.obs.snapshotBytes.Add(n)
		j.obs.fsyncs.Inc()
	}
	if err := j.w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("store: journal truncate: %w", err)
	}
	if _, err := j.w.f.Seek(int64(len(walMagic)), 0); err != nil {
		return fmt.Errorf("store: journal seek: %w", err)
	}
	j.w.size = int64(len(walMagic))
	if j.obs != nil {
		j.obs.truncations.Inc()
	}
	j.appends = 0
	return nil
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.w.close()
}
