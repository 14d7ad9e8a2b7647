package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"drp/internal/metrics"
)

// Options tune a durable store.
type Options struct {
	// Sync is the fsync policy for WAL appends.
	Sync SyncPolicy
	// SyncEvery is the records-between-fsyncs interval for SyncInterval.
	SyncEvery int
	// SnapshotEvery takes an automatic snapshot (with log truncation)
	// every that many appended records; 0 disables automatic snapshots.
	SnapshotEvery int
	// Metrics, when non-nil, receives the drp_store_* counters.
	Metrics *metrics.Registry
}

// Store is one site's replication state: replica holdings, primary-stamped
// versions, each object's current primary and replica set R_k, queued
// writes and accounted NTC. R_k is the one record reads and broadcasts
// route by: a read walks it nearest first (core.RankReplicas) and the
// primary broadcasts a write over it. A version is the one staleness
// record: a replica behind its primary's version missed a write.
//
// In durable mode (Open with a directory) every mutation is written to the
// WAL before the store's lock is released, so no caller sees or
// acknowledges a change the log does not hold, and Open replays the
// directory back into the identical state. A mutation is one commit of
// one record; a coordinator batch (Batch) is one commit of all its
// records, written with one write call and synced at most once. In memory
// mode (Open with an empty dir) the same state machine runs without a log.
//
// All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	site    int
	primary []int // bootstrap: primary site per object
	dir     string
	w       *wal // nil in memory mode
	seg     uint64
	policy  SyncPolicy
	every   int
	snapN   int
	obs     *instruments
	appends int // since the last snapshot
	recov   bool
	closed  bool

	// The commit in progress: the frames of the records applied but not
	// yet written, and what each of them overwrote.
	frames []byte
	undo   []prior

	holds    []bool
	versions []int64
	replicas [][]int
	pending  []int
	ntc      int64
	// curPrimary is the routing primary per object; it starts at the
	// bootstrap primaries and moves when the control plane promotes a
	// different member (opPrimary records).
	curPrimary []int
}

// errClosed reports a mutation on a store whose log has been closed (the
// node is shutting down or crash-stopped).
var errClosed = errors.New("store: closed")

// bootstrap sets the state a site starts from: every object's replica set
// is its primary alone, and objects primaried at the site are held at
// version 0.
func (s *Store) bootstrap() {
	n := len(s.primary)
	s.holds = make([]bool, n)
	s.versions = make([]int64, n)
	s.replicas = make([][]int, n)
	s.pending = make([]int, n)
	s.ntc = 0
	s.curPrimary = append([]int(nil), s.primary...)
	for k, sp := range s.primary {
		s.replicas[k] = []int{sp}
		if sp == s.site {
			s.holds[k] = true
		}
	}
}

// Open opens (or creates) the durable store for site in dir: bootstrap,
// load the newest valid snapshot, replay the WAL segments after it
// (refusing the directory when one is missing), truncate any corrupt
// tail, and leave the log open for appending. An empty dir returns a
// memory-only store, which ignores opts. The recovered state is a pure
// function of (site, primaries, directory bytes); Recovered reports
// whether any prior state was found.
func Open(dir string, site int, primaries []int, opts Options) (*Store, error) {
	s := &Store{site: site, primary: append([]int(nil), primaries...)}
	s.bootstrap()
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.dir = dir
	s.policy = opts.Sync
	s.every = opts.SyncEvery
	if s.policy == SyncInterval && s.every <= 0 {
		s.every = 64
	}
	s.snapN = opts.SnapshotEvery
	s.obs = newInstruments(opts.Metrics)

	wals, snaps, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	// Newest snapshot that validates wins; older ones and torn tmp files
	// are garbage from interrupted snapshot cycles.
	snapSeq, haveSnap, replayFrom := uint64(0), false, "bootstrap"
	var rejected error
	for i := len(snaps) - 1; i >= 0; i-- {
		path := snapPath(dir, snaps[i])
		payload, err := readSnapshotFile(path)
		if err == nil {
			if err = s.loadSnapshot(payload); err != nil {
				err = fmt.Errorf("store: %s: %w", path, err)
			}
		}
		if err != nil {
			s.bootstrap() // undo whatever part of it was applied
			rejected = cmp.Or(rejected, err)
			continue
		}
		snapSeq, haveSnap, replayFrom = snaps[i], true, filepath.Base(path)
		break
	}
	s.recov = haveSnap
	// Replay every segment after the snapshot, oldest first. Normally that
	// is exactly one; an interrupted snapshot cycle can leave the fresh
	// empty segment alongside it. They must run contiguously from the
	// snapshot's sequence number + 1: a gap is history lost (a damaged
	// newest snapshot whose segment was already retired), and replaying
	// around it would silently rewind the site.
	var after []uint64
	for _, seq := range wals {
		if seq > snapSeq {
			after = append(after, seq)
		}
	}
	for i, seq := range after {
		if want := snapSeq + 1 + uint64(i); seq != want {
			err := fmt.Errorf("store: %s: log segment %s is missing, so replay from %s cannot reach %s",
				dir, filepath.Base(walPath(dir, want)), replayFrom, filepath.Base(walPath(dir, seq)))
			if rejected != nil {
				err = fmt.Errorf("%w (newest snapshot rejected: %v)", err, rejected)
			}
			return nil, err
		}
	}
	cur := snapSeq + uint64(max(len(after), 1))
	var last *wal
	for _, seq := range after {
		w, err := openWAL(walPath(dir, seq), s.policy, s.every, s.obs, s.applyPayload)
		if err != nil {
			return nil, err
		}
		if seq == cur {
			last = w
		} else if err := w.close(); err != nil {
			return nil, err
		}
	}
	if last == nil {
		w, err := openWAL(walPath(dir, cur), s.policy, s.every, s.obs, s.applyPayload)
		if err != nil {
			return nil, err
		}
		last = w
	}
	s.w, s.seg = last, cur
	return s, nil
}

// applyPayload decodes and applies one record replayed from the WAL or
// loaded from a snapshot; undecodable payloads end the valid prefix. A
// whole record with a retired opcode was written by an older format: it
// aborts the open rather than be truncated away as a torn tail, which
// would silently drop its site's history.
func (s *Store) applyPayload(payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", errCorruptRecord, err)
	}
	if name, retired := retiredOps[rec.op]; retired {
		return fmt.Errorf("store: %s holds a record with retired opcode %d, a %s; start from a fresh directory", s.dir, rec.op, name)
	}
	if rec.op == opNTC {
		if rec.obj != -1 {
			return fmt.Errorf("%w: ntc record with object %d", errCorruptRecord, rec.obj)
		}
	} else if int(rec.obj) < 0 || int(rec.obj) >= len(s.primary) {
		return fmt.Errorf("%w: object %d out of range", errCorruptRecord, rec.obj)
	}
	s.apply(rec)
	s.recov = true
	return nil
}

// apply materialises one record into the in-memory state. It must stay a
// pure function of (state, record): replay determinism depends on it.
func (s *Store) apply(rec record) {
	k := int(rec.obj)
	switch rec.op {
	case opPlace:
		s.holds[k] = true
		s.versions[k] = rec.arg
	case opDrop:
		s.holds[k] = false
		s.versions[k] = 0
	case opSetVer:
		s.versions[k] = rec.arg
	case opQueue:
		s.pending[k] += int(rec.arg)
		if s.pending[k] < 0 {
			s.pending[k] = 0
		}
	case opNTC:
		s.ntc += rec.arg
	case opPrimary:
		s.curPrimary[k] = int(rec.arg)
	case opReplicas:
		s.replicas[k] = intsOf(rec.sites)
	}
}

func intsOf(sites []int32) []int {
	if sites == nil {
		return nil
	}
	out := make([]int, len(sites))
	for i, s := range sites {
		out[i] = int(s)
	}
	return out
}

func int32sOf(sites []int) []int32 {
	if sites == nil {
		return nil
	}
	out := make([]int32, len(sites))
	for i, s := range sites {
		out[i] = int32(s)
	}
	return out
}

// commit logs and applies one record as a commit of its own.
func (s *Store) commit(rec record) error {
	if s.closed {
		return errClosed
	}
	if err := s.hold(rec); err != nil {
		return err
	}
	return s.flush()
}

// hold applies rec and, in durable mode, holds its frame for the commit's
// one write. A snapshot that comes due first writes what is held: the
// snapshot holds the state after those records, so they must be in the
// segment it retires, not appended again after it. Once written they stay
// committed: a failed snapshot does not fail them, and is retried at the
// next record.
func (s *Store) hold(rec record) error {
	if s.w == nil {
		s.apply(rec)
		return nil
	}
	s.undo = append(s.undo, s.priorOf(rec))
	s.apply(rec)
	s.frames = appendFrame(s.frames, rec)
	s.appends++
	if s.snapN > 0 && s.appends >= s.snapN {
		if err := s.flush(); err != nil {
			return err
		}
		_ = s.snapshotLocked()
	}
	return nil
}

// flush writes the held records with one write call: append before ack.
// When the write fails, the records are rolled back, so the state holds
// nothing the log does not.
func (s *Store) flush() error {
	n := len(s.undo)
	if n == 0 {
		return nil
	}
	err := s.w.write(s.frames, n)
	if err != nil {
		for i := n - 1; i >= 0; i-- {
			s.restore(s.undo[i])
		}
		s.appends -= n
	}
	clear(s.undo) // drop the replaced replica sets
	s.frames, s.undo = s.frames[:0], s.undo[:0]
	return err
}

// prior is what one held record overwrote: the fields of its object (none
// for an ntc record) and the accounted NTC.
type prior struct {
	obj      int
	holds    bool
	version  int64
	pending  int
	primary  int
	replicas []int
	ntc      int64
}

func (s *Store) priorOf(rec record) prior {
	pr := prior{obj: int(rec.obj), ntc: s.ntc}
	if k := pr.obj; k >= 0 {
		pr.holds, pr.version, pr.pending = s.holds[k], s.versions[k], s.pending[k]
		pr.primary, pr.replicas = s.curPrimary[k], s.replicas[k]
	}
	return pr
}

func (s *Store) restore(pr prior) {
	s.ntc = pr.ntc
	if k := pr.obj; k >= 0 {
		s.holds[k], s.versions[k], s.pending[k] = pr.holds, pr.version, pr.pending
		s.curPrimary[k], s.replicas[k] = pr.primary, pr.replicas
	}
}

// Tx applies the records of one coordinator batch inside Batch. Each
// call applies one record at once, visible to the calls after it; the
// batch's commit writes them all.
type Tx interface {
	// PrimaryOf returns object k's routing primary, as the records
	// before this one left it.
	PrimaryOf(k int) int
	// Place stores a replica of k at version ver.
	Place(k int, ver int64)
	// Drop discards the replica of k.
	Drop(k int)
	// SetReplicas replaces object k's replica set R_k.
	SetReplicas(k int, sites []int)
	// SetPrimary records a primary promotion: object k's writes now route
	// to site. Setting the already-current primary applies nothing.
	SetPrimary(k, site int)
}

// tx is the Tx of one Batch call. After a failed write its calls apply
// nothing.
type tx struct {
	s       *Store
	i       int   // the record being applied
	written int   // the records a snapshot's write has committed
	err     error // the failed write
}

func (t *tx) hold(rec record) {
	if t.err != nil {
		return
	}
	if t.err = t.s.hold(rec); t.err == nil && t.s.w != nil && len(t.s.undo) == 0 {
		t.written = t.i + 1 // a due snapshot wrote the records so far
	}
}

func (t *tx) PrimaryOf(k int) int { return t.s.curPrimary[k] }

func (t *tx) Place(k int, ver int64) { t.hold(record{op: opPlace, obj: int32(k), arg: ver}) }

func (t *tx) Drop(k int) { t.hold(record{op: opDrop, obj: int32(k)}) }

func (t *tx) SetReplicas(k int, sites []int) {
	t.hold(record{op: opReplicas, obj: int32(k), sites: int32sOf(sites)})
}

func (t *tx) SetPrimary(k, site int) {
	if t.s.curPrimary[k] != site {
		t.hold(record{op: opPrimary, obj: int32(k), arg: int64(site)})
	}
}

// Batch applies a coordinator batch of n records as one commit, under the
// store's lock throughout, so no other call sees a record of it before
// the log holds it. rec applies record i through at most one call on tx,
// or rejects it by returning false without one; the batch then ends
// before it. rec runs under the lock and must not call back into the
// store. The records applied are written with one write call, and the
// sync policy runs once for them: SyncInterval counts them all towards
// its interval.
//
// Batch returns how many records stay applied: n, or those before the
// rejected one. If the write fails, nothing it held stays applied and
// the error says why; only records that a snapshot due inside the batch
// wrote first (Options.SnapshotEvery) remain, and they are counted.
func (s *Store) Batch(n int, rec func(i int, tx Tx) bool) (applied int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	t := &tx{s: s}
	for t.i < n && rec(t.i, t) && t.err == nil {
		t.i++
	}
	if t.err == nil {
		t.err = s.flush()
	}
	if t.err != nil {
		return t.written, t.err
	}
	return t.i, nil
}

// Recovered reports whether Open found prior durable state (a snapshot or
// at least one WAL record).
func (s *Store) Recovered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recov
}

// Durable reports whether mutations are appended to a write-ahead log
// before acknowledgement. The tracing layer uses it to emit wal.append
// spans only when there is a log to append to.
func (s *Store) Durable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w != nil
}

// Site returns the site this store belongs to.
func (s *Store) Site() int { return s.site }

// Objects returns the object count the store was bootstrapped with.
func (s *Store) Objects() int { return len(s.primary) }

// --- getters ---

// Holds reports whether the site holds a replica of object k.
func (s *Store) Holds(k int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holds[k]
}

// Version returns the local version of object k (0 if not held).
func (s *Store) Version(k int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions[k]
}

// Replica returns the holding flag and version of object k atomically.
func (s *Store) Replica(k int) (bool, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.holds[k], s.versions[k]
}

// Replicas returns object k's replica set R_k. The slice is the store's
// own and is read-only: a change to R_k installs a fresh slice, so the
// one returned never changes.
func (s *Store) Replicas(k int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicas[k]
}

// PendingCount returns the queued-write count for object k.
func (s *Store) PendingCount(k int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending[k]
}

// PendingObjects returns the objects with queued writes, ascending.
func (s *Store) PendingObjects() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var objs []int
	for k, c := range s.pending {
		if c > 0 {
			objs = append(objs, k)
		}
	}
	return objs
}

// TotalPending sums the queued writes across objects.
func (s *Store) TotalPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, c := range s.pending {
		total += c
	}
	return total
}

// PrimaryOf returns the current routing primary of object k (the
// bootstrap primary until a promotion moves it).
func (s *Store) PrimaryOf(k int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curPrimary[k]
}

// Records calls fn once per object, ascending, with the site's holding
// flag, version, routing primary SP_k and replica set R_k, all read under
// one lock. replicas is read-only, as Replicas returns it; fn must not
// call back into the store.
func (s *Store) Records(fn func(k int, holds bool, version int64, primary int, replicas []int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, held := range s.holds {
		fn(k, held, s.versions[k], s.curPrimary[k], s.replicas[k])
	}
}

// NTC returns the transfer cost accounted to this site.
func (s *Store) NTC() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ntc
}

// --- mutators (logged before the lock is released) ---

// BumpVersion serialises one write at the primary: version++ and returns
// the new stamp.
func (s *Store) BumpVersion(k int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.versions[k] + 1
	if err := s.commit(record{op: opSetVer, obj: int32(k), arg: next}); err != nil {
		return 0, err
	}
	return next, nil
}

// AdoptVersion installs ver for a held replica when it is newer than the
// local stamp, reporting (held, adopted). Non-holders and stale stamps
// append nothing.
func (s *Store) AdoptVersion(k int, ver int64) (held, adopted bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.holds[k] {
		return false, false, nil
	}
	if ver <= s.versions[k] {
		return true, false, nil
	}
	if err := s.commit(record{op: opSetVer, obj: int32(k), arg: ver}); err != nil {
		return true, false, err
	}
	return true, true, nil
}

// Queue records one write waiting for an unreachable primary.
func (s *Store) Queue(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(record{op: opQueue, obj: int32(k), arg: 1})
}

// Dequeue retires one queued write after a successful replay.
func (s *Store) Dequeue(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[k] == 0 {
		return nil
	}
	return s.commit(record{op: opQueue, obj: int32(k), arg: -1})
}

// AddNTC accounts d transfer-cost units to the site.
func (s *Store) AddNTC(d int64) error {
	if d == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(record{op: opNTC, obj: -1, arg: d})
}

// --- snapshots, shutdown, inspection ---

// stateHeaderLen is the encoded state's prefix: site and object count.
const stateHeaderLen = 8

// encodeStateLocked is the canonical full-state encoding, and a snapshot's
// payload: the header, then the WAL records that rebuild the state from
// bootstrap. Per object, ascending, it emits only what differs from
// bootstrap: place or drop, the version, the replica set, the primary and
// the pending count as one queue record. One ntc record ends it.
func (s *Store) encodeStateLocked() []byte {
	buf := make([]byte, stateHeaderLen, stateHeaderLen+len(s.primary)*recordFixedLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(s.site))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(s.primary)))
	emit := func(rec record) { buf = rec.appendTo(buf) }
	for k, sp := range s.primary {
		obj, ver := int32(k), int64(0)
		if s.holds[k] && sp != s.site {
			emit(record{op: opPlace, obj: obj, arg: s.versions[k]})
			ver = s.versions[k]
		} else if !s.holds[k] && sp == s.site {
			emit(record{op: opDrop, obj: obj})
		}
		if s.versions[k] != ver {
			emit(record{op: opSetVer, obj: obj, arg: s.versions[k]})
		}
		if r := s.replicas[k]; len(r) != 1 || r[0] != sp {
			emit(record{op: opReplicas, obj: obj, sites: int32sOf(r)})
		}
		if p := s.curPrimary[k]; p != sp {
			emit(record{op: opPrimary, obj: obj, arg: int64(p)})
		}
		if c := s.pending[k]; c != 0 {
			emit(record{op: opQueue, obj: obj, arg: int64(c)})
		}
	}
	emit(record{op: opNTC, obj: -1, arg: s.ntc})
	return buf
}

// EncodeState returns the canonical byte encoding of the full site state.
// Two stores serve identically if and only if their encodings are equal;
// the recovery tests assert byte identity across kill and replay.
func (s *Store) EncodeState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeStateLocked()
}

// loadSnapshot applies a snapshot payload to the bootstrap state, one
// record at a time through applyPayload, the path replay takes.
func (s *Store) loadSnapshot(payload []byte) error {
	if bytes.HasPrefix(payload, []byte(`{"site":`)) {
		return errors.New("snapshot holds the retired JSON state format; start from a fresh directory")
	}
	if len(payload) < stateHeaderLen ||
		binary.LittleEndian.Uint32(payload[0:4]) != uint32(s.site) ||
		binary.LittleEndian.Uint32(payload[4:8]) != uint32(len(s.primary)) {
		return fmt.Errorf("snapshot header does not match site %d with %d objects", s.site, len(s.primary))
	}
	for rest := payload[stateHeaderLen:]; len(rest) > 0; {
		n := recordLen(rest)
		if n < 0 || n > len(rest) {
			return fmt.Errorf("%w: snapshot ends inside a record", errCorruptRecord)
		}
		if err := s.applyPayload(rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	return nil
}

// Snapshot forces a full-state snapshot with log truncation: the state is
// committed to snap-<seg>, a fresh segment wal-<seg+1> takes over, and the
// old segment plus older snapshots are retired. A crash at any step of the
// protocol recovers correctly (see DESIGN.md §11 for the crash matrix).
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	if s.closed {
		return errClosed
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	payload := s.encodeStateLocked()
	n, err := writeSnapshotFile(snapPath(s.dir, s.seg), payload)
	if err != nil {
		return err
	}
	if s.obs != nil {
		s.obs.snapshots.Inc()
		s.obs.snapshotBytes.Add(n)
		s.obs.fsyncs.Inc()
	}
	next, err := openWAL(walPath(s.dir, s.seg+1), s.policy, s.every, s.obs, func([]byte) error {
		return errCorruptRecord // a fresh segment has no business holding records
	})
	if err != nil {
		// Appends go on to the current segment, which recovery would skip
		// behind this snapshot: withdraw it.
		_ = os.Remove(snapPath(s.dir, s.seg))
		return err
	}
	if err := s.w.close(); err != nil {
		next.close()
		return err
	}
	// Retirement is the last step: until it happens the old files are
	// harmlessly shadowed by the newer snapshot.
	if err := os.Remove(walPath(s.dir, s.seg)); err == nil && s.obs != nil {
		s.obs.truncations.Inc()
	}
	if s.seg > 0 {
		_ = os.Remove(snapPath(s.dir, s.seg-1))
	}
	syncDir(s.dir)
	s.w = next
	s.seg++
	s.appends = 0
	return nil
}

// Close flushes and closes the log. No snapshot is taken: shutdown and
// crash recover through the same replay path, which keeps recovery honest.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w == nil {
		return nil
	}
	return s.w.close()
}

// Crash closes the log without flushing — the SIGKILL-equivalent stop the
// recovery tests use. Acknowledged records already handed to the OS
// survive (a process kill loses nothing; only power loss tests the fsync
// policy).
func (s *Store) Crash() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w == nil {
		return nil
	}
	return s.w.abandon()
}
