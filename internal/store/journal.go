package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the coordinator's durable placement record: the placement
// plan in force (drpcluster's monitor) or being migrated to (drpnet's
// coordinator) and the epoch it belongs to, so a process killed between
// epochs restarts from its last decision instead of re-seeding. Only the
// latest decision is ever acted on, so the journal is one record,
// dir/journal.snap, replaced whole by writeSnapshotFile: temp file, fsync,
// rename, directory fsync. The rename is the commit point — a crash at any
// instant leaves the previous record or the new one, and a leftover temp
// file is never read.
type Journal struct {
	mu     sync.Mutex
	path   string
	latest journalEntry // Plan is nil until one is recorded
}

// journalEntry is the record: a placement plan in its canonical encoding
// (see internal/plan) and the epoch it belongs to.
type journalEntry struct {
	Epoch int             `json:"epoch"`
	Plan  json.RawMessage `json:"plan,omitempty"`
}

// OpenJournal opens the placement journal in dir, creating dir if needed.
// A missing record is an empty journal. A record that fails its magic,
// checksum or decode is an error, and so is a journal.log left by the
// retired log format: an old or damaged directory is never mistaken for
// an empty one.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	legacy := filepath.Join(dir, "journal.log")
	if _, err := os.Lstat(legacy); err == nil {
		return nil, fmt.Errorf("store: %s is a plan log of the retired journal format; start from a fresh directory", legacy)
	}
	j := &Journal{path: filepath.Join(dir, "journal.snap")}
	payload, err := readSnapshotFile(j.path)
	if errors.Is(err, fs.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(payload, &j.latest); err != nil {
		return nil, fmt.Errorf("store: %s: %w", j.path, err)
	}
	if j.latest.Plan == nil {
		return nil, fmt.Errorf("store: %s: the entry for epoch %d holds no placement plan (it predates the plan format); start from a fresh directory", j.path, j.latest.Epoch)
	}
	return j, nil
}

// RecordPlan makes plan, in its canonical encoding, the record for epoch:
// an equal or higher epoch replaces the record on disk before RecordPlan
// returns, a lower one is a no-op. A coordinator journals the *target*
// plan before executing a single migration step, so a restart
// mid-migration can diff the journaled intent against the sites' actual
// holdings and finish the remainder.
func (j *Journal) RecordPlan(epoch int, plan []byte) error {
	if len(plan) == 0 {
		return fmt.Errorf("store: journal: empty plan for epoch %d", epoch)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.latest.Plan != nil && epoch < j.latest.Epoch {
		return nil
	}
	e := journalEntry{Epoch: epoch, Plan: append(json.RawMessage(nil), plan...)}
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: journal encode: %w", err)
	}
	if _, err := writeSnapshotFile(j.path, payload); err != nil {
		return err
	}
	j.latest = e
	return nil
}

// LatestPlan returns the most recently journaled plan bytes; ok is false
// when no plan has been recorded.
func (j *Journal) LatestPlan() (epoch int, plan []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.latest.Plan == nil {
		return 0, nil, false
	}
	return j.latest.Epoch, append([]byte(nil), j.latest.Plan...), true
}
