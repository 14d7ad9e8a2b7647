package store

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"drp/internal/metrics"
)

// primariesRR spreads n objects round-robin over m sites.
func primariesRR(m, n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = k % m
	}
	return p
}

// driveOps applies a fixed mutation history exercising every opcode.
func driveOps(t *testing.T, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Place(1, 3))
	must(s.Place(2, 0))
	if _, err := s.BumpVersion(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BumpVersion(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AdoptVersion(1, 7); err != nil {
		t.Fatal(err)
	}
	must(s.MarkStale(0, []int{2, 4}))
	must(s.ClearStale(0, 4))
	must(s.Queue(3))
	must(s.Queue(3))
	must(s.Dequeue(3))
	must(s.AddNTC(123))
	must(s.AddNTC(77))
	must(s.SetReplicas(2, []int{0, 4, 1}))
	must(s.SetReplicas(0, []int{0, 2, 3}))
	must(s.SetPrimary(0, 2))
	must(s.SetPrimary(3, 1))
	must(s.Drop(2))
}

func TestMemoryBootstrap(t *testing.T) {
	s, err := Open("", 1, primariesRR(3, 6), Options{}) // objects 1, 4 primaried at site 1
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		wantHold := k%3 == 1
		if s.Holds(k) != wantHold {
			t.Errorf("holds(%d) = %v, want %v", k, s.Holds(k), wantHold)
		}
		if got := s.Replicas(k); len(got) != 1 || got[0] != k%3 {
			t.Errorf("replicas(%d) = %v, want [%d]", k, got, k%3)
		}
	}
	if s.Recovered() {
		t.Error("fresh memory store claims to be recovered")
	}
}

// A site that leaves R_k has nothing left to reconcile: the replica-set
// record trims its stale mark and keeps the others.
func TestSetReplicasTrimsStaleMarks(t *testing.T) {
	s, err := Open("", 0, primariesRR(4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkStale(0, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetReplicas(0, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.StaleSites(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stale sites after R_0 = [0 2]: %v, want [2]", got)
	}
}

// TestReplayReconstructsState is the heart of the engine: a store killed
// without any shutdown courtesy recovers byte-identical state from its
// directory alone.
func TestReplayReconstructsState(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(5, 8)
	s, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, s)
	want := s.EncodeState()
	if err := s.Crash(); err != nil { // no fsync, no snapshot, no goodbye
		t.Fatal(err)
	}

	r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Recovered() {
		t.Fatal("reopened store does not report recovery")
	}
	if got := r.EncodeState(); !bytes.Equal(got, want) {
		t.Errorf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// TestReplayIsDeterministic pins byte-identical logs and states for the
// same operation history.
func TestReplayIsDeterministic(t *testing.T) {
	prim := primariesRR(5, 8)
	var logs [2][]byte
	var states [2][]byte
	for i := range logs {
		dir := t.TempDir()
		s, err := Open(dir, 2, prim, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		driveOps(t, s)
		states[i] = s.EncodeState()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(walPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = data
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Error("identical histories produced different WAL bytes")
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Error("identical histories produced different states")
	}
}

// A log written before the replica set became the only routing record
// holds opcodes 8 and 10. Replay must refuse it loudly — Open fails and
// names the format change — and must not truncate the record away as if
// it were a torn tail: the file stays byte-for-byte as it was.
func TestReplayRefusesRetiredOpcodes(t *testing.T) {
	prim := primariesRR(4, 6)
	for _, rec := range []record{
		{op: opRetiredNearest, obj: 2, arg: 1},
		{op: opRetiredRegistry, obj: 0, sites: []int32{0, 3}},
	} {
		dir := t.TempDir()
		s, err := Open(dir, 0, prim, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Place(1, 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		w, err := openWAL(walPath(dir, 1), SyncNever, 0, nil, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := w.append(rec.encode()); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(walPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}

		r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
		if err == nil {
			r.Close()
			t.Fatalf("opcode %d: a log with a retired record opened", rec.op)
		}
		if errors.Is(err, errCorruptRecord) || !strings.Contains(err.Error(), "retired opcode") {
			t.Fatalf("opcode %d: error does not name the format change: %v", rec.op, err)
		}
		after, err := os.ReadFile(walPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("opcode %d: the refused open rewrote the log (%d -> %d bytes)", rec.op, len(before), len(after))
		}
	}
}

// TestSnapshotTruncatesAndRecovers drives the snapshot protocol and checks
// both the on-disk rotation and recovery from the rotated layout.
func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(4, 6)
	s, err := Open(dir, 1, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Steady state after one snapshot: snap-1 + empty wal-2.
	if _, err := os.Stat(snapPath(dir, 1)); err != nil {
		t.Fatalf("snap-1 missing: %v", err)
	}
	if _, err := os.Stat(walPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("wal-1 survived the snapshot truncation")
	}
	if err := s.AddNTC(5); err != nil { // post-snapshot delta lands in wal-2
		t.Fatal(err)
	}
	want := s.EncodeState()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 1, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.EncodeState(); !bytes.Equal(got, want) {
		t.Errorf("post-snapshot recovery differs:\n got %s\nwant %s", got, want)
	}
}

// TestAutoSnapshotEvery checks SnapshotEvery rotates without being asked.
func TestAutoSnapshotEvery(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(3, 4)
	s, err := Open(dir, 0, prim, Options{Sync: SyncNever, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.AddNTC(1); err != nil {
			t.Fatal(err)
		}
	}
	want := s.EncodeState()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wals, snaps, err := scanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("expected exactly one snapshot and one wal after rotation, got snaps %v wals %v", snaps, wals)
	}
	r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.EncodeState(); !bytes.Equal(got, want) {
		t.Error("auto-snapshot recovery diverged")
	}
}

// TestCorruptTailRecoversPrefix flips bytes at the end of the log: replay
// must keep every record before the damage and truncate the rest.
func TestCorruptTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(4, 6)
	s, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Prefix history, capture, then a suffix that will be corrupted away.
	if err := s.AddNTC(11); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(1, 9); err != nil {
		t.Fatal(err)
	}
	prefix := s.EncodeState()
	if err := s.AddNTC(1000); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := walPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff // damage the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.EncodeState(); !bytes.Equal(got, prefix) {
		t.Errorf("corrupt tail did not recover the prefix:\n got %s\nwant %s", got, prefix)
	}
	// The truncation must be physical: appending now and reopening again
	// must not resurrect the damaged record.
	if err := r.AddNTC(2); err != nil {
		t.Fatal(err)
	}
	want := r.EncodeState()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.EncodeState(); !bytes.Equal(got, want) {
		t.Error("appends after tail truncation did not persist cleanly")
	}
}

// TestTornSnapshotFallsBack simulates a crash mid-snapshot: a torn snap
// file must be ignored in favour of the older snapshot + log replay.
func TestTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(4, 6)
	s, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, s)
	want := s.EncodeState()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A half-written snap-1 (no valid frame) appears, as if the process
	// died inside the snapshot protocol before the WAL was retired.
	if err := os.WriteFile(snapPath(dir, 1), []byte("DRPSNAP1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.EncodeState(); !bytes.Equal(got, want) {
		t.Error("torn snapshot was not ignored")
	}
}

// TestCorruptSnapshotWithRetiredSegmentRefusesToOpen: once a snapshot
// has retired the segment it covers, that snapshot is the only record of
// the history before it. Damaging it must stop the open, naming the
// missing segment and the directory, instead of replaying the newer
// segment over the bootstrap state and silently rewinding the site.
func TestCorruptSnapshotWithRetiredSegmentRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(4, 6)
	s, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNTC(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := snapPath(dir, 1)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // one payload byte
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 0, prim, Options{Sync: SyncAlways})
	if err == nil {
		r.Close()
		t.Fatalf("opened with NTC %d from a damaged snapshot whose segment is gone", r.NTC())
	}
	for _, want := range []string{dir, "wal-00000001.log"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if after, err := os.ReadFile(walPath(dir, 2)); err != nil || !bytes.Equal(after, wal) {
		t.Errorf("the refused open touched wal-00000002.log (%v)", err)
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, primariesRR(2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.AddNTC(1); err == nil {
		t.Fatal("mutation after Close succeeded")
	}
}

func TestStoreMetricsCount(t *testing.T) {
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	prim := primariesRR(3, 4)
	s, err := Open(dir, 0, prim, Options{Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appends := reg.Counter("drp_store_appends_total", "", nil).Value()
	if appends == 0 {
		t.Error("no appends counted")
	}
	if reg.Counter("drp_store_fsyncs_total", "", nil).Value() == 0 {
		t.Error("no fsyncs counted under SyncAlways")
	}
	if reg.Counter("drp_store_snapshot_bytes_total", "", nil).Value() == 0 {
		t.Error("no snapshot bytes counted")
	}
	if reg.Counter("drp_store_truncations_total", "", nil).Value() == 0 {
		t.Error("no truncation counted for the retired segment")
	}

	// Reopen: every appended record is replayed and counted.
	r, err := Open(dir, 0, prim, Options{Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayed := reg.Counter("drp_store_replay_records_total", "", nil).Value()
	// Post-snapshot the segment is empty, so only records after it replay
	// (none here) — force some, crash, and reopen to see replay.
	if err := r.AddNTC(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, 0, prim, Options{Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := reg.Counter("drp_store_replay_records_total", "", nil).Value(); got != replayed+1 {
		t.Errorf("replay counter %d, want %d", got, replayed+1)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in     string
		policy SyncPolicy
		every  int
		ok     bool
	}{
		{"always", SyncAlways, 0, true},
		{"", SyncAlways, 0, true},
		{"never", SyncNever, 0, true},
		{"every:16", SyncInterval, 16, true},
		{"every:0", 0, 0, false},
		{"sometimes", 0, 0, false},
	}
	for _, c := range cases {
		p, n, err := ParseSyncPolicy(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseSyncPolicy(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (p != c.policy || n != c.every) {
			t.Errorf("ParseSyncPolicy(%q) = (%v,%d), want (%v,%d)", c.in, p, n, c.policy, c.every)
		}
	}
}
