package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// buildSeedWAL produces a valid log with a handful of records, for the
// fuzzer to mangle.
func buildSeedWAL(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(dir, 0, primariesRR(4, 6), Options{Sync: SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	for _, err := range []error{
		s.Place(1, 2),
		s.SetPrimary(2, 3),
		s.AddNTC(41),
		s.Queue(2),
		s.SetReplicas(1, []int{0, 1, 2}),
		s.SetReplicas(0, []int{0, 3}),
		s.Drop(1),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALReplay feeds arbitrary bytes to the store's recovery path as a
// log file. Whatever the damage — truncated tails, flipped bits, random
// garbage — recovery must never panic, must produce a state (a valid
// prefix of whatever history the bytes encode), and must be idempotent:
// opening the already-truncated file again yields the identical state, a
// snapshot of it reopens to that state, and appends still work.
func FuzzWALReplay(f *testing.F) {
	seed := buildSeedWAL(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])     // torn tail
	f.Add(seed[:len(walMagic)+4]) // torn frame header
	f.Add([]byte{})               // empty file
	f.Add([]byte("DRPWAL1\n"))    // magic only
	f.Add([]byte("DRPW"))         // torn magic
	f.Add([]byte("not a wal at all"))
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0x40 // mid-log bit flip
	f.Add(corrupt)

	prim := primariesRR(4, 6)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := walPath(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0, prim, Options{Sync: SyncNever})
		if err != nil {
			// Only a non-WAL file (bad magic) may be rejected; that must
			// not leave the process in a weird state — just stop.
			return
		}
		state := s.EncodeState()
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}

		// Idempotence: recovery already truncated the damage away, so a
		// second recovery sees a fully valid log and the same state.
		r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("second open after recovery failed: %v", err)
		}
		if got := r.EncodeState(); !bytes.Equal(got, state) {
			t.Fatalf("recovery not idempotent:\n first %x\nsecond %x", state, got)
		}
		// The recovered state must survive its own snapshot, which is the
		// record stream that rebuilds it from bootstrap.
		served := observe(r)
		if err := r.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		r, err = Open(dir, 0, prim, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("open from the snapshot failed: %v", err)
		}
		if got := r.EncodeState(); !bytes.Equal(got, state) || observe(r) != served {
			t.Fatalf("snapshot round trip moved the state:\nbefore %x\n after %x", state, got)
		}
		// The recovered prefix must accept appends and survive them.
		if err := r.AddNTC(1); err != nil {
			t.Fatal(err)
		}
		want := r.EncodeState()
		if err := r.Crash(); err != nil {
			t.Fatal(err)
		}
		r2, err := Open(dir, 0, prim, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		if got := r2.EncodeState(); !bytes.Equal(got, want) {
			t.Fatalf("append after recovery lost:\n got %x\nwant %x", got, want)
		}
	})
}

// FuzzJournalReplay feeds arbitrary bytes to the journal as its record,
// dir/journal.snap. A record either fails to open or yields a plan — it is
// never read as an empty journal — and an opened journal accepts the next
// record and reopens to it.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.RecordPlan(3, []byte(`{"epoch":3,"placement":[[0,3],[1]]}`)); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "journal.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		jdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(jdir, "journal.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(jdir)
		if err != nil {
			return // refusing a bad frame or a plan-less entry is fine; panics are not
		}
		epoch, plan, ok := j.LatestPlan()
		if !ok || plan == nil {
			t.Fatal("a present record opened as an empty journal")
		}
		next := max(epoch, 99)
		if err := j.RecordPlan(next, []byte(`{"epoch":99}`)); err != nil {
			t.Fatal(err)
		}
		r, err := OpenJournal(jdir)
		if err != nil {
			t.Fatal(err)
		}
		if e, got, ok := r.LatestPlan(); !ok || e != next || string(got) != `{"epoch":99}` {
			t.Fatalf("reopened (%d, %s, %v), want (%d, {\"epoch\":99}, true)", e, got, ok, next)
		}
	})
}
