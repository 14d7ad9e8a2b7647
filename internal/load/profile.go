// Package load is the open-loop load harness: it drives a live netnode
// cluster at a fixed offered arrival rate, with deterministic seeded
// schedules (Poisson or bursty arrivals, Zipf object popularity, a
// per-site origin mix), coordinated-omission-safe latency recording into
// log-linear histograms, geo-latency injection through drp/internal/fault
// link-latency middleware, and an SLO-gated report — the harness that
// turns eq. 4's solver-side cost numbers into measured end-to-end
// latency and throughput under concurrency.
//
// Open loop means the schedule, not the system under test, decides when
// requests fire: a request's intended send time is fixed up front, and
// its latency is measured from that intended time even when the system
// stalls and the request leaves late. A closed-loop driver (one request
// per goroutine, send-after-receive) silently self-throttles against a
// slow server and reports flattering latencies — the coordinated
// omission problem; this harness is built not to.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"drp/internal/fault"
)

// Arrival processes.
const (
	// ArrivalPoisson spaces requests by exponential inter-arrival times at
	// the profile's rate — independent users, the open-loop default.
	ArrivalPoisson = "poisson"
	// ArrivalUniform spaces requests exactly 1/rate apart — a metronome,
	// useful when a test wants zero arrival jitter.
	ArrivalUniform = "uniform"
	// arrivalBursty is Poisson with a flash crowd: during the burst window
	// the rate multiplies by BurstMult and the object popularity collapses
	// onto the hottest objects (BurstFocus).
	arrivalBursty = "bursty"
)

// Geo latency profile names.
const (
	// GeoNone injects no latency: raw loopback.
	GeoNone = "none"
	// geoLAN injects a uniform 1ms on every inter-site link — one
	// datacenter, different racks.
	geoLAN = "lan"
	// geoWAN3 spreads the sites round-robin over three continents and
	// injects intra-region 2ms, and 40/70/90ms across region pairs — the
	// 3-continent WAN of the delay-aware placement literature.
	geoWAN3 = "wan3"
)

// Profile parameterises one load run. The zero value is not runnable;
// start from DefaultProfile. Profiles are JSON round-trippable (the
// drpload -profile file) and everything deterministic flows from Seed.
type Profile struct {
	// Seed drives schedule generation via internal/xrand: two runs with
	// equal profiles produce byte-identical schedules.
	Seed uint64 `json:"seed"`
	// Rate is the offered arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// DurationMS is the schedule length in milliseconds.
	DurationMS int64 `json:"duration_ms"`
	// Arrival selects the arrival process ("poisson", "uniform", "bursty").
	Arrival string `json:"arrival"`
	// BurstMult multiplies Rate inside the burst window (bursty only; > 1).
	BurstMult float64 `json:"burst_mult,omitempty"`
	// BurstStartMS/BurstEndMS delimit the burst window (bursty only).
	BurstStartMS int64 `json:"burst_start_ms,omitempty"`
	BurstEndMS   int64 `json:"burst_end_ms,omitempty"`
	// BurstFocus is the fraction of burst-window requests redirected to
	// the single hottest object — the flash crowd's subject (bursty only;
	// in [0,1], 0 keeps the ambient popularity).
	BurstFocus float64 `json:"burst_focus,omitempty"`
	// WriteFraction is the probability a request is a write (in [0,1]).
	WriteFraction float64 `json:"write_fraction"`
	// Skew is the Zipf exponent of object popularity (0 = uniform).
	Skew float64 `json:"skew"`
	// Origins weights the request origin mix per universe site. Empty
	// means uniform over the driven sites; otherwise it must have one
	// non-negative weight per site with a positive sum (zero-weight sites
	// originate nothing).
	Origins []float64 `json:"origins,omitempty"`
	// Geo names a built-in latency profile ("none", "lan", "wan3").
	Geo string `json:"geo"`
	// MatrixMS is an explicit symmetric site×site link-latency matrix in
	// milliseconds, overriding Geo when present.
	MatrixMS [][]int64 `json:"matrix_ms,omitempty"`
}

// DefaultProfile returns a runnable baseline: 2s of Poisson arrivals at
// 500 req/s, 10% writes, web-like Zipf popularity, no injected latency.
func DefaultProfile() Profile {
	return Profile{
		Seed:          1,
		Rate:          500,
		DurationMS:    2000,
		Arrival:       ArrivalPoisson,
		WriteFraction: 0.10,
		Skew:          0.8,
		Geo:           GeoNone,
	}
}

// validate checks the profile against a cluster of m sites.
func (pr *Profile) validate(m int) error {
	if m <= 0 {
		return fmt.Errorf("load: cluster has %d sites", m)
	}
	if !(pr.Rate > 0) || pr.Rate > 1e7 {
		return fmt.Errorf("load: rate %v outside (0, 1e7] req/s", pr.Rate)
	}
	if pr.DurationMS <= 0 || pr.DurationMS > 3_600_000 {
		return fmt.Errorf("load: duration %dms outside (0, 1h]", pr.DurationMS)
	}
	switch pr.Arrival {
	case ArrivalPoisson, ArrivalUniform:
		if pr.BurstMult != 0 || pr.BurstStartMS != 0 || pr.BurstEndMS != 0 || pr.BurstFocus != 0 {
			return fmt.Errorf("load: burst parameters need arrival %q", arrivalBursty)
		}
	case arrivalBursty:
		if !(pr.BurstMult > 1) || pr.BurstMult > 1e4 {
			return fmt.Errorf("load: bursty arrival needs burst_mult in (1, 1e4], got %v", pr.BurstMult)
		}
		if pr.BurstStartMS < 0 || pr.BurstEndMS <= pr.BurstStartMS || pr.BurstEndMS > pr.DurationMS {
			return fmt.Errorf("load: burst window [%d,%d)ms outside the %dms schedule", pr.BurstStartMS, pr.BurstEndMS, pr.DurationMS)
		}
		if pr.BurstFocus < 0 || pr.BurstFocus > 1 || pr.BurstFocus != pr.BurstFocus {
			return fmt.Errorf("load: burst_focus %v outside [0,1]", pr.BurstFocus)
		}
	default:
		return fmt.Errorf("load: unknown arrival process %q", pr.Arrival)
	}
	if pr.WriteFraction < 0 || pr.WriteFraction > 1 || pr.WriteFraction != pr.WriteFraction {
		return fmt.Errorf("load: write fraction %v outside [0,1]", pr.WriteFraction)
	}
	if pr.Skew < 0 || pr.Skew > 64 || pr.Skew != pr.Skew {
		return fmt.Errorf("load: Zipf skew %v outside [0,64]", pr.Skew)
	}
	if len(pr.Origins) > 0 {
		if len(pr.Origins) != m {
			return fmt.Errorf("load: %d origin weights for %d sites", len(pr.Origins), m)
		}
		// An infinite weight, or a sum that overflows to one, would send
		// every request to the last origin (pickIndex).
		var sum float64
		for i, w := range pr.Origins {
			if !(w >= 0) || math.IsInf(w, 1) {
				return fmt.Errorf("load: origin weight %v for site %d (must be finite and ≥ 0)", w, i)
			}
			sum += w
		}
		if !(sum > 0) || math.IsInf(sum, 1) {
			return fmt.Errorf("load: origin weights sum to %v (need finite and > 0)", sum)
		}
	}
	if len(pr.MatrixMS) > 0 {
		if len(pr.MatrixMS) != m {
			return fmt.Errorf("load: %d latency matrix rows for %d sites", len(pr.MatrixMS), m)
		}
		if _, err := fault.MatrixPlan(pr.MatrixMS); err != nil {
			return err
		}
	} else {
		switch pr.Geo {
		case GeoNone, geoLAN, geoWAN3:
		default:
			return fmt.Errorf("load: unknown geo profile %q", pr.Geo)
		}
	}
	return nil
}

// LatencyPlan resolves the profile's geo setting into a fault plan for a
// cluster of m sites: the explicit matrix when present, the named
// profile's matrix otherwise. GeoNone returns an empty plan.
func (pr *Profile) LatencyPlan(m int) (fault.Plan, error) {
	matrix := pr.MatrixMS
	if len(matrix) == 0 {
		matrix = geoMatrix(pr.Geo, m)
	}
	if len(matrix) == 0 {
		return fault.Plan{}, nil
	}
	return fault.MatrixPlan(matrix)
}

// geoMatrix returns the named profile's symmetric link-latency matrix in
// milliseconds for m sites, or nil for GeoNone/unknown names (Validate
// rejects the latter before anything runs).
func geoMatrix(name string, m int) [][]int64 {
	var link func(i, j int) int64
	switch name {
	case geoLAN:
		link = func(i, j int) int64 { return 1 }
	case geoWAN3:
		// Sites spread round-robin over three regions; cross-region delays
		// are ballpark one-way WAN numbers (NA↔EU 40, NA↔AP 70, EU↔AP 90).
		cross := [3][3]int64{
			{2, 40, 70},
			{40, 2, 90},
			{70, 90, 2},
		}
		link = func(i, j int) int64 { return cross[i%3][j%3] }
	default:
		return nil
	}
	matrix := make([][]int64, m)
	for i := range matrix {
		matrix[i] = make([]int64, m)
		for j := range matrix[i] {
			if i == j {
				continue
			}
			d := link(i, j)
			if j < i {
				d = link(j, i) // symmetric by construction
			}
			matrix[i][j] = d
		}
	}
	return matrix
}

// Canonical returns the profile's canonical JSON encoding: fixed field
// order, two-space indent, trailing newline. Equal profiles encode to
// equal bytes, so a profile can serve as a schedule fingerprint input.
func (pr *Profile) Canonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pr); err != nil {
		return nil, fmt.Errorf("load: encode profile: %w", err)
	}
	return buf.Bytes(), nil
}

// parseProfile decodes a profile from JSON, rejecting unknown fields so
// typos in hand-written profiles fail loudly. It does not validate —
// call Validate with the cluster size.
func parseProfile(data []byte) (Profile, error) {
	var pr Profile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pr); err != nil {
		return Profile{}, fmt.Errorf("load: parse profile: %w", err)
	}
	return pr, nil
}

// LoadProfile reads and validates a profile file against m sites.
func LoadProfile(path string, m int) (Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, fmt.Errorf("load: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, 8<<20))
	if err != nil {
		return Profile{}, fmt.Errorf("load: read profile: %w", err)
	}
	pr, err := parseProfile(data)
	if err != nil {
		return Profile{}, err
	}
	if err := pr.validate(m); err != nil {
		return Profile{}, err
	}
	return pr, nil
}

// originSites returns the sites with a positive origin weight, ascending.
func (pr *Profile) originSites(m int) []int {
	if len(pr.Origins) == 0 {
		out := make([]int, m)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	for i, w := range pr.Origins {
		if w > 0 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
