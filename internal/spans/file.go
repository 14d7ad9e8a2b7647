package spans

import (
	"fmt"
	"os"
)

// OpenFile builds the CLI tracing sink shared by drpnet and drpcluster:
// it creates (truncating) a JSONL span file at path and returns a tracer
// writing to it plus a close function that flushes and closes the file.
// clock selects the timestamp source — "logical" (the default, empty
// string included) yields byte-deterministic files for seeded runs,
// "wall" real durations. sample keeps every nth root request; values
// below 1 are rejected rather than silently clamped.
func OpenFile(path string, sample int64, clock string) (*Tracer, func() error, error) {
	if sample < 1 {
		return nil, nil, fmt.Errorf("spans: sample must be >= 1, got %d", sample)
	}
	var ck Clock
	switch clock {
	case "", "logical":
		ck = newLogicalClock()
	case "wall":
		ck = WallClock{}
	default:
		return nil, nil, fmt.Errorf("spans: unknown clock %q (want logical or wall)", clock)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := newWriter(f)
	tr := New(w)
	tr.SetClock(ck)
	tr.SetSample(sample)
	cl := func() error {
		flushErr := w.flush()
		if err := f.Close(); err != nil {
			return err
		}
		return flushErr
	}
	return tr, cl, nil
}
