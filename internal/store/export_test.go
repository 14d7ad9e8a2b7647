package store

import (
	"encoding/binary"
	"hash/crc32"
)

// LogWrites returns the write calls made on s's current log segment: one
// per commit, however many records it carries.
func LogWrites(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0
	}
	return s.w.writes
}

// The store's tests drive the coordinator records one at a time: each of
// these is a batch of one record.

func (s *Store) Place(k int, ver int64) error {
	return s.one(func(tx Tx) { tx.Place(k, ver) })
}

func (s *Store) Drop(k int) error { return s.one(func(tx Tx) { tx.Drop(k) }) }

func (s *Store) SetReplicas(k int, sites []int) error {
	return s.one(func(tx Tx) { tx.SetReplicas(k, sites) })
}

func (s *Store) SetPrimary(k, site int) error {
	return s.one(func(tx Tx) { tx.SetPrimary(k, site) })
}

func (s *Store) one(apply func(Tx)) error {
	_, err := s.Batch(1, func(_ int, tx Tx) bool {
		apply(tx)
		return true
	})
	return err
}

// append logs one payload as a commit of its own, as a store would.
func (w *wal) append(payload []byte) error {
	frame := append(make([]byte, frameHeaderLen), payload...)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return w.write(frame, 1)
}

func (r record) encode() []byte { return r.appendTo(nil) }
