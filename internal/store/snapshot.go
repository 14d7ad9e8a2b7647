package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapMagic heads every snapshot file.
var snapMagic = []byte("DRPSNAP1\n")

// writeSnapshotFile atomically writes payload to path: the bytes land in a
// temp file first (magic | length | crc32 | payload), are fsynced, and the
// rename is the commit point — a crash at any instant leaves either the
// old snapshot or the new one, never a half-written file that validates.
func writeSnapshotFile(path string, payload []byte) (int64, error) {
	frame := make([]byte, len(snapMagic)+frameHeaderLen+len(payload))
	copy(frame, snapMagic)
	binary.LittleEndian.PutUint32(frame[len(snapMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[len(snapMagic)+4:], crc32.ChecksumIEEE(payload))
	copy(frame[len(snapMagic)+frameHeaderLen:], payload)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("store: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: snapshot commit: %w", err)
	}
	syncDir(filepath.Dir(path))
	return int64(len(frame)), nil
}

// readSnapshotFile loads and validates a snapshot, returning its payload.
// Any validation failure (bad magic, torn frame, CRC mismatch) is an
// error: a site falls back to an older snapshot while the segments it
// needs are still on disk (Open), the journal refuses to open.
func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+frameHeaderLen || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("store: %s: bad snapshot header", path)
	}
	body := data[len(snapMagic):]
	length := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	payload := body[frameHeaderLen:]
	if int(length) != len(payload) {
		return nil, fmt.Errorf("store: %s: snapshot length %d != %d", path, length, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("store: %s: snapshot checksum mismatch", path)
	}
	return payload, nil
}

// syncDir fsyncs a directory so renames and unlinks within it are durable.
// Best-effort: some filesystems refuse directory fsync and recovery does
// not depend on it (an undurable rename just re-runs a longer replay).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// Segment file naming: wal-<seq>.log holds the records appended after
// snap-<seq-1>.snap was taken; snap-<seq>.snap captures the state at the
// end of wal-<seq>. Steady state on disk is {snap-(N-1), wal-N}; the
// snapshot protocol (Store.Snapshot) walks it to {snap-N, wal-(N+1)} with
// a crash at any step recovering correctly.
func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", seq))
}

// scanSegments lists the WAL and snapshot sequence numbers present in dir,
// each sorted ascending.
func scanSegments(dir string) (wals, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			return 0, false
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		return n, err == nil
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parse(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, n)
		}
		if n, ok := parse(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return wals, snaps, nil
}
