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
		t.Fatalf("state diverged across crash:\n  %x\n  %x", want, got)
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
