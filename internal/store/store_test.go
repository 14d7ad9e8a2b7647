package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// observe renders a store's state through its getters alone, so a test
// can check what a site serves without trusting EncodeState.
func observe(s *Store) string {
	var b strings.Builder
	for k := 0; k < s.Objects(); k++ {
		held, ver := s.Replica(k)
		fmt.Fprintf(&b, "%d: held %v v%d R%v primary %d pending %d\n",
			k, held, ver, s.Replicas(k), s.PrimaryOf(k), s.PendingCount(k))
	}
	fmt.Fprintf(&b, "ntc %d\n", s.NTC())
	return b.String()
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
		t.Errorf("recovered state differs:\n got %x\nwant %x", got, want)
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
// holds opcodes 8 and 10, and one written while the primary logged stale
// marks holds opcodes 4 and 5. Replay must refuse either loudly — Open
// fails and names the record — and must not truncate it away as if it
// were a torn tail: the file stays byte-for-byte as it was. A snapshot
// holding one is refused the same way.
func TestReplayRefusesRetiredOpcodes(t *testing.T) {
	prim := primariesRR(4, 6)
	for _, tc := range []struct {
		rec  record
		name string
	}{
		{record{op: 4, obj: 0, sites: []int32{1, 3}}, "stale mark"},
		{record{op: 5, obj: 0, arg: 3}, "stale-mark clear"},
		{record{op: 8, obj: 2, arg: 1}, "nearest-replica record"},
		{record{op: 10, obj: 0, sites: []int32{0, 3}}, "replicator list"},
	} {
		rec := tc.rec
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
		if errors.Is(err, errCorruptRecord) || !strings.Contains(err.Error(), "retired opcode") || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("opcode %d: error does not name the %s: %v", rec.op, tc.name, err)
		}
		after, err := os.ReadFile(walPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("opcode %d: the refused open rewrote the log (%d -> %d bytes)", rec.op, len(before), len(after))
		}

		// The same record in a snapshot whose segment is retired.
		dir = t.TempDir()
		payload := make([]byte, stateHeaderLen)
		payload[4] = byte(len(prim)) // site 0, len(prim) objects
		if _, err := writeSnapshotFile(snapPath(dir, 1), append(payload, rec.encode()...)); err != nil {
			t.Fatal(err)
		}
		if w, err = openWAL(walPath(dir, 2), SyncNever, 0, nil, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if r, err = Open(dir, 0, prim, Options{Sync: SyncNever}); err == nil {
			r.Close()
			t.Fatalf("opcode %d: a snapshot with a retired record opened", rec.op)
		}
		if !strings.Contains(err.Error(), "retired opcode") || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("opcode %d: snapshot error does not name the %s: %v", rec.op, tc.name, err)
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

// TestSnapshotRoundTripEveryOpcode: a snapshot is the record stream that
// rebuilds the state from bootstrap, so what it omits or orders wrongly is
// lost. The history drops an object held at bootstrap, sets a replica
// set, queues two writes and moves a primary away and back; the reopened
// store must serve the same state, getter by getter.
func TestSnapshotRoundTripEveryOpcode(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(5, 8) // site 0 holds objects 0 and 5 at bootstrap
	s, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	driveOps(t, s)
	for _, err := range []error{
		s.Drop(5),
		s.SetReplicas(1, []int{1, 0}),
		s.Queue(3),
		s.SetPrimary(4, 0),
		s.SetPrimary(4, 4),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.PendingCount(3) != 2 || s.Holds(5) {
		t.Fatalf("history did not reach the state under test:\n%s", observe(s))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want, wantState := observe(s), s.EncodeState()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := observe(r); got != want {
		t.Errorf("snapshot recovery serves a different state:\n got\n%s want\n%s", got, want)
	}
	if got := r.EncodeState(); !bytes.Equal(got, wantState) {
		t.Errorf("snapshot recovery encodes differently:\n got %x\nwant %x", got, wantState)
	}
}

// A snapshot is the log's own records; one written in the retired JSON
// format is rejected like a damaged one. With its segment retired there
// is no history to fall back to, so the open fails and names the format.
func TestJSONSnapshotIsRejected(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(2, 4)
	legacy := []byte(`{"site":1,"holds":[false,true,false,true],"versions":[0,0,0,0],` +
		`"replicas":[[0],[1],[0],[1]],"stale":[[],[],[],[]],"pending":[0,0,0,0],"ntc":5}`)
	if _, err := writeSnapshotFile(snapPath(dir, 1), legacy); err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(walPath(dir, 2), SyncNever, 0, nil, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 1, prim, Options{Sync: SyncNever})
	if err == nil {
		r.Close()
		t.Fatal("a directory whose only history is a JSON snapshot opened")
	}
	for _, want := range []string{"retired JSON", "snap-00000001.snap", "wal-00000001.log"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// A mutation that reached the log is committed even when the automatic
// snapshot after it fails: the caller gets no error for a change that
// stays applied and recovers. The snapshot is retried on the next commit;
// an explicit Snapshot still reports its failure.
func TestFailedAutoSnapshotKeepsCommit(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(3, 4)
	s, err := Open(dir, 0, prim, Options{Sync: SyncNever, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	block := snapPath(dir, 1) + ".tmp"
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int64{5, 7, 11} {
		if err := s.AddNTC(d); err != nil {
			t.Fatalf("AddNTC(%d) failed after it was logged: %v", d, err)
		}
	}
	if got := s.NTC(); got != 23 {
		t.Fatalf("NTC %d, want 23", got)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("an explicit snapshot onto a blocked path succeeded")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNTC(1); err != nil { // the retry now rotates
		t.Fatal(err)
	}
	if _, err := os.Stat(snapPath(dir, 1)); err != nil {
		t.Fatalf("the retried snapshot was not taken: %v", err)
	}
	want := s.EncodeState()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.NTC(); got != 24 {
		t.Errorf("recovered NTC %d, want 24", got)
	}
	if got := r.EncodeState(); !bytes.Equal(got, want) {
		t.Errorf("recovery differs:\n got %x\nwant %x", got, want)
	}
}

// A rotation that cannot open the next segment withdraws its snapshot:
// appends go on to the current segment, which a snapshot of the same
// sequence number would hide from recovery.
func TestFailedRotationWithdrawsSnapshot(t *testing.T) {
	dir := t.TempDir()
	prim := primariesRR(3, 4)
	s, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(walPath(dir, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNTC(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("rotation onto a blocked segment succeeded")
	}
	if err := s.AddNTC(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapPath(dir, 1)); !os.IsNotExist(err) {
		t.Errorf("the failed rotation left %s behind (%v)", filepath.Base(snapPath(dir, 1)), err)
	}
	r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.NTC(); got != 7 {
		t.Errorf("recovered NTC %d, want 7", got)
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
		t.Errorf("corrupt tail did not recover the prefix:\n got %x\nwant %x", got, prefix)
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
		{"every:16junk", 0, 0, false},
		{"every: 16", 0, 0, false},
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
