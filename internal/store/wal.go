// Package store is the durable data plane under drp/internal/netnode: an
// append-only write-ahead log with CRC-framed records and replay-on-open,
// periodic full-state snapshots with log truncation, and the per-site
// replication state (replica holdings, primary-stamped versions, replica
// sets and primaries, queued writes, accounted NTC) materialised from them.
// A replica's version is the one record of whether it missed a write.
//
// Every state mutation is written to the WAL before the caller, or any
// other, observes the new state, so a site killed at any instant
// recovers, by replaying its data directory, exactly the state it had
// acknowledged. A mutation is one record; a coordinator batch (Store.Batch)
// is all its records in one write call, synced at most once. Replay is
// deterministic: the recovered state is a pure function of the bootstrap
// parameters and the log bytes, and the same operation sequence produces
// byte-identical log files. A corrupted or torn log tail is truncated to
// the last whole record — recovery always yields a valid prefix of
// history and never panics (fuzz-backed by FuzzWALReplay).
//
// The same engine backs a pure in-memory mode (no directory), so the
// serving layer runs one code path whether or not durability is on.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
)

// walMagic heads every log file; a file without it is rejected (it is not
// ours) rather than silently replayed as empty.
var walMagic = []byte("DRPWAL1\n")

// maxRecordBytes caps one record's payload. Frames claiming more are
// treated as corruption: replay stops and truncates there.
const maxRecordBytes = 1 << 24

// frameHeaderLen is payload length (uint32) plus CRC32 (uint32).
const frameHeaderLen = 8

// SyncPolicy says when appends reach the platters.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every commit: nothing acknowledged is ever
	// lost, at one disk flush per commit — per record, or per coordinator
	// batch.
	SyncAlways SyncPolicy = iota
	// SyncInterval counts the records of each commit and fsyncs at the
	// end of the commit that brings the count to SyncEvery (and on
	// snapshot/close): a crash loses at most SyncEvery-1 acknowledged
	// records to a power failure, none to a process kill. A batch that
	// passes the interval is synced whole before its reply.
	SyncInterval
	// SyncNever leaves flushing to the OS entirely.
	SyncNever
)

// ParseSyncPolicy maps a CLI flag value onto a policy: "always", "never",
// or "every:N" for SyncInterval with N appends between flushes.
func ParseSyncPolicy(s string) (SyncPolicy, int, error) {
	switch s {
	case "always", "":
		return SyncAlways, 0, nil
	case "never":
		return SyncNever, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "every:"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n > 0 {
			return SyncInterval, n, nil
		}
	}
	return 0, 0, fmt.Errorf(`store: bad fsync policy %q (want "always", "never" or "every:N")`, s)
}

// wal is one open log segment. All methods are called under the owning
// Store's lock.
type wal struct {
	f       *os.File
	path    string
	size    int64 // bytes of validated + appended frames (incl. magic)
	policy  SyncPolicy
	every   int
	unsynct int // records written since the last fsync
	writes  int // write calls on the segment: one per commit
	obs     *instruments
}

// errCorruptRecord marks a payload the caller could not decode: replay
// treats it exactly like a CRC mismatch — the valid prefix ends before it.
var errCorruptRecord = errors.New("store: corrupt record payload")

// openWAL opens (or creates) the log at path, replays every whole record
// payload into apply, truncates any corrupt or torn tail, and leaves the
// file positioned for appending. apply is called once per valid record in
// log order; returning errCorruptRecord ends the valid prefix there, any
// other error aborts the open.
func openWAL(path string, policy SyncPolicy, every int, obs *instruments, apply func(payload []byte) error) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	w := &wal{f: f, path: path, policy: policy, every: every, obs: obs}
	valid, err := w.replay(apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		// Torn or corrupt tail: cut the log back to the last whole record
		// so future appends extend a clean prefix.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate corrupt tail: %w", err)
		}
		if obs != nil {
			obs.truncations.Inc()
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek wal: %w", err)
	}
	w.size = valid
	return w, nil
}

// replay scans the log from the start, calling apply for each record whose
// frame checks out, and returns the byte offset of the end of the last
// valid record. Corruption is never an error — it just ends the valid
// prefix — but apply errors (state-level rejection) abort the open.
func (w *wal) replay(apply func(payload []byte) error) (int64, error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: seek wal: %w", err)
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(w.f, magic); err != nil {
		// A brand-new file, or one shorter than the magic (a torn header):
		// truncate to zero and stamp the magic.
		if err := w.f.Truncate(0); err != nil {
			return 0, fmt.Errorf("store: reset torn wal header: %w", err)
		}
		if _, err := w.f.WriteAt(walMagic, 0); err != nil {
			return 0, fmt.Errorf("store: write wal magic: %w", err)
		}
		return int64(len(walMagic)), nil
	}
	if string(magic) != string(walMagic) {
		return 0, fmt.Errorf("store: %s is not a drp wal (bad magic)", w.path)
	}
	valid := int64(len(walMagic))
	header := make([]byte, frameHeaderLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(w.f, header); err != nil {
			return valid, nil // clean EOF or torn frame header: stop here
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordBytes {
			return valid, nil // absurd frame: treat as corruption
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(w.f, payload); err != nil {
			return valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, nil // bit rot or torn write
		}
		if err := apply(payload); err != nil {
			if errors.Is(err, errCorruptRecord) {
				return valid, nil // framed but undecodable: treat as corruption
			}
			return 0, fmt.Errorf("store: replay: %w", err)
		}
		if w.obs != nil {
			w.obs.replayed.Inc()
		}
		valid += frameHeaderLen + int64(length)
	}
}

// appendFrame appends the frame of one record to dst: the payload's
// length and CRC32, then the payload.
func appendFrame(dst []byte, rec record) []byte {
	start := len(dst)
	dst = rec.appendTo(append(dst, make([]byte, frameHeaderLen)...))
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// write writes the frames of n records with one write call and then
// applies the sync policy once: SyncAlways fsyncs; SyncInterval counts the
// n records towards its interval and fsyncs once the count reaches it. A
// failed write or fsync cuts the segment back to where the write began,
// so replay never meets a record its caller was told had failed.
func (w *wal) write(frames []byte, n int) error {
	w.writes++
	if _, err := w.f.Write(frames); err != nil {
		w.rewind()
		return fmt.Errorf("store: append: %w", err)
	}
	var err error
	switch w.policy {
	case SyncAlways:
		err = w.sync()
	case SyncInterval:
		if w.unsynct += n; w.unsynct >= w.every {
			err = w.sync()
		}
	}
	if err != nil {
		w.unsynct = max(w.unsynct-n, 0)
		w.rewind()
		return err
	}
	w.size += int64(len(frames))
	if w.obs != nil {
		w.obs.appends.Add(int64(n))
	}
	return nil
}

// rewind cuts the segment back to its acknowledged size and positions
// the next write there. It is best effort: on a file that cannot be cut
// the next write fails too.
func (w *wal) rewind() {
	_ = w.f.Truncate(w.size)
	_, _ = w.f.Seek(w.size, io.SeekStart)
}

func (w *wal) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	w.unsynct = 0
	if w.obs != nil {
		w.obs.fsyncs.Inc()
	}
	return nil
}

// close flushes (unless the policy is SyncNever) and closes the file.
func (w *wal) close() error {
	var errSync error
	if w.policy != SyncNever {
		errSync = w.sync()
	}
	errClose := w.f.Close()
	if errSync != nil {
		return errSync
	}
	return errClose
}

// abandon closes the file handle without flushing — the crash-stop path.
func (w *wal) abandon() error { return w.f.Close() }
