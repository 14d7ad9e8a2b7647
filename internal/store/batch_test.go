package store

import (
	"bytes"
	"sync"
	"testing"
)

// coordinatorBatch is six coordinator records for site 0 of a 4×6
// round-robin store: rec applies record i.
func coordinatorBatch(i int, tx Tx) bool {
	switch i {
	case 0:
		tx.Place(1, 2)
	case 1:
		tx.SetReplicas(1, []int{1, 0})
	case 2:
		tx.SetPrimary(2, 0)
	case 3:
		tx.Place(5, 3)
	case 4:
		tx.SetReplicas(5, []int{1, 0, 3})
	case 5:
		tx.Drop(1)
	}
	return true
}

// TestBatchWriteFailureAppliesNothing closes the log file under a store
// and sends it a batch: its one write fails, Batch reports nothing
// applied, and neither the state nor the log holds any record of it. With
// a snapshot due inside the batch, the records the snapshot's write
// committed stay applied and are counted, and the rest roll back.
func TestBatchWriteFailureAppliesNothing(t *testing.T) {
	prim := primariesRR(4, 6)
	for _, tc := range []struct {
		name    string
		snapN   int
		closeAt int // the record before which the log file closes
		applied int
	}{
		{"one write", 0, 0, 0},
		{"a snapshot due at record 2", 4, 4, 3},
	} {
		dir, twinDir := t.TempDir(), t.TempDir()
		s, err := Open(dir, 0, prim, Options{Sync: SyncAlways, SnapshotEvery: tc.snapN})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Open(twinDir, 0, prim, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []*Store{s, twin} {
			if err := st.AddNTC(5); err != nil {
				t.Fatal(err)
			}
		}
		// The twin applies what must stay applied.
		if n, err := twin.Batch(tc.applied, coordinatorBatch); err != nil || n != tc.applied {
			t.Fatalf("%s: twin batch: %d applied, %v", tc.name, n, err)
		}
		want := twin.EncodeState()

		applied, err := s.Batch(6, func(i int, tx Tx) bool {
			if i == tc.closeAt {
				s.w.f.Close() // under the lock Batch holds
			}
			return coordinatorBatch(i, tx)
		})
		if err == nil || applied != tc.applied {
			t.Fatalf("%s: a batch over a closed log file: %d applied, %v; want %d and an error", tc.name, applied, err, tc.applied)
		}
		if got := s.EncodeState(); !bytes.Equal(got, want) {
			t.Fatalf("%s: the failed batch moved the state:\n got %x\nwant %x", tc.name, got, want)
		}
		_ = s.Crash() // its log file is closed already
		r, err := Open(dir, 0, prim, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.EncodeState(); !bytes.Equal(got, want) {
			t.Fatalf("%s: recovery after the failed batch:\n got %x\nwant %x", tc.name, got, want)
		}
		r.Close()
		twin.Close()
	}
}

// TestBatchIsAtomicToReaders runs batches from several goroutines while
// others read: each batch sets an object's replica set and then places
// it, and no reader may see the one record without the other. The final
// state is the one the same batches leave applied one after another.
func TestBatchIsAtomicToReaders(t *testing.T) {
	prim := primariesRR(4, 24)
	s, err := Open(t.TempDir(), 0, prim, Options{Sync: SyncNever, SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	twin, err := Open("", 0, prim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The objects site 0 is not primary of, each with the replica set its
	// batch installs.
	var objs []int
	for k, sp := range prim {
		if sp != 0 {
			objs = append(objs, k)
		}
	}
	place := func(k int) func(int, Tx) bool {
		return func(i int, tx Tx) bool {
			if i == 0 {
				tx.SetReplicas(k, []int{prim[k], 0})
			} else {
				tx.Place(k, int64(k))
			}
			return true
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Records(func(k int, holds bool, _ int64, _ int, replicas []int) {
					if prim[k] != 0 && holds != (len(replicas) == 2) {
						t.Errorf("object %d: held %v with replica set %v", k, holds, replicas)
					}
				})
			}
		}()
	}
	var writers sync.WaitGroup
	for w := range 3 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := w; i < len(objs); i += 3 {
				if n, err := s.Batch(2, place(objs[i])); err != nil || n != 2 {
					t.Errorf("object %d: %d applied, %v", objs[i], n, err)
				}
				if err := s.AddNTC(1); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	for _, k := range objs {
		if _, err := twin.Batch(2, place(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.AddNTC(int64(len(objs))); err != nil {
		t.Fatal(err)
	}
	if got, want := s.EncodeState(), twin.EncodeState(); !bytes.Equal(got, want) {
		t.Fatalf("concurrent batches left\n  %x\nwant\n  %x", got, want)
	}
}
