package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestSetPrimarySurvivesCrashReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, primariesRR(3, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PrimaryOf(4); got != 1 {
		t.Fatalf("bootstrap PrimaryOf(4) = %d, want 1", got)
	}
	if err := s.SetPrimary(4, 0); err != nil {
		t.Fatal(err)
	}
	// Re-setting the current primary must append nothing.
	before, _ := os.Stat(filepath.Join(dir, "wal-000001.log"))
	if err := s.SetPrimary(4, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, "wal-000001.log"))
	if before != nil && after != nil && after.Size() != before.Size() {
		t.Fatal("idempotent SetPrimary grew the log")
	}
	want := s.EncodeState()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 0, primariesRR(3, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.PrimaryOf(4); got != 0 {
		t.Fatalf("replayed PrimaryOf(4) = %d, want promoted 0", got)
	}
	if got := r.EncodeState(); !bytes.Equal(got, want) {
		t.Fatalf("state diverged across crash:\n  %s\n  %s", want, got)
	}
	// Promotions must survive snapshot + truncation too.
	if err := r.SetPrimary(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want = r.EncodeState()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, 0, primariesRR(3, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.EncodeState(); !bytes.Equal(got, want) {
		t.Fatal("state diverged across snapshot recovery")
	}
	if got := r2.PrimaryOf(2); got != 0 {
		t.Fatalf("snapshot PrimaryOf(2) = %d, want 0", got)
	}
}

// TestLoadSnapshotWithoutPrimaries pins back-compat: a snapshot written
// before primary promotion existed (no "primary" field) loads with the
// bootstrap primaries intact.
func TestLoadSnapshotWithoutPrimaries(t *testing.T) {
	s := Memory(1, primariesRR(2, 4))
	if err := s.loadSnapshot([]byte(`{"site":1,"holds":[false,true,false,true],` +
		`"versions":[0,0,0,0],"nearest":[0,1,0,1],"replicas":[[0],[1],[0],[1]],` +
		`"registry":[[],[1],[],[1]],"stale":[[],[],[],[]],"pending":[0,0,0,0],"ntc":5}`)); err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	for k := 0; k < 4; k++ {
		if got := s.PrimaryOf(k); got != k%2 {
			t.Fatalf("PrimaryOf(%d) = %d after legacy snapshot, want bootstrap %d", k, got, k%2)
		}
	}
}

func TestJournalPlanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := j.LatestPlan(); ok {
		t.Fatal("empty journal claims a plan")
	}
	planA := []byte(`{"epoch":1,"view":{"epoch":1,"members":[0,1,2]},"primaries":[0],"placement":[[0,1]]}`)
	planB := []byte(`{"epoch":2,"view":{"epoch":2,"members":[1,2]},"primaries":[1],"placement":[[1]]}`)
	if err := j.RecordPlan(1, planA); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordPlan(3, planB); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	epoch, plan, ok := r.LatestPlan()
	if !ok || epoch != 3 || !bytes.Equal(plan, planB) {
		t.Fatalf("LatestPlan = (%d, %s, %v), want (3, %s, true)", epoch, plan, ok, planB)
	}
	// A stale epoch is journaled but never becomes the latest plan, and
	// compaction must not lose the latest one.
	if err := r.RecordPlan(2, planA); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	err = r.compactLocked()
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, plan, ok := r2.LatestPlan(); !ok || !bytes.Equal(plan, planB) {
		t.Fatalf("plan lost across compaction: (%s, %v)", plan, ok)
	}
}
