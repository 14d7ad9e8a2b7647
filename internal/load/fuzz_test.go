package load

import (
	"bytes"
	"testing"
)

// FuzzLoadProfile hammers the profile decode → validate → re-encode
// path with arbitrary bytes: parsing must never panic, validation must
// reject ragged or negative latency matrices and malformed origin
// mixes, and any profile that survives validation must round-trip
// through its canonical encoding byte-identically (the property the
// schedule fingerprint relies on).
func FuzzLoadProfile(f *testing.F) {
	seed := DefaultProfile()
	if canon, err := seed.Canonical(); err == nil {
		f.Add(canon)
	}
	f.Add([]byte(`{"seed":3,"rate":100,"duration_ms":500,"arrival":"bursty","burst_mult":5,"burst_start_ms":100,"burst_end_ms":300,"burst_focus":0.5,"write_fraction":0.2,"skew":1.1,"geo":"wan3"}`))
	f.Add([]byte(`{"rate":10,"duration_ms":100,"arrival":"uniform","geo":"none","write_fraction":0,"skew":0,"origins":[1,0,2,1],"seed":0}`))
	f.Add([]byte(`{"rate":10,"duration_ms":100,"arrival":"poisson","write_fraction":0,"skew":0,"seed":0,"geo":"none","matrix_ms":[[0,5],[5,0]]}`))
	f.Add([]byte(`{"rate":10,"duration_ms":100,"arrival":"poisson","write_fraction":0,"skew":0,"seed":0,"geo":"none","matrix_ms":[[0,5],[-5,0]]}`))
	f.Add([]byte(`{"rate":1e308,"duration_ms":9999999999,"arrival":"poisson"}`))
	f.Add([]byte(`not json`))

	const sites = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := parseProfile(data)
		if err != nil {
			return // malformed JSON or unknown fields: rejected, not panicked
		}
		if err := pr.validate(sites); err != nil {
			return // rejected profiles must not be usable
		}

		// Sanity the validator actually enforced its contract.
		if !(pr.Rate > 0) || pr.DurationMS <= 0 {
			t.Fatalf("validator accepted degenerate rate/duration: %+v", pr)
		}
		for i, row := range pr.MatrixMS {
			if len(row) != len(pr.MatrixMS) {
				t.Fatalf("validator accepted ragged matrix row %d: %+v", i, pr.MatrixMS)
			}
			for j, d := range row {
				if d < 0 || row[j] != pr.MatrixMS[j][i] {
					t.Fatalf("validator accepted negative/asymmetric matrix: %+v", pr.MatrixMS)
				}
			}
		}

		// A valid profile must build a latency plan without error…
		if _, err := pr.LatencyPlan(sites); err != nil {
			t.Fatalf("valid profile rejected by LatencyPlan: %v", err)
		}

		// …and round-trip canonically.
		canon, err := pr.Canonical()
		if err != nil {
			t.Fatalf("valid profile failed to encode: %v", err)
		}
		back, err := parseProfile(canon)
		if err != nil {
			t.Fatalf("canonical encoding failed to parse: %v\n%s", err, canon)
		}
		canon2, err := back.Canonical()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
	})
}
