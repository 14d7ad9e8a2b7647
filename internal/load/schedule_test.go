package load

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"drp/internal/core"
	"drp/internal/workload"
)

// TestScheduleDeterministic is the reproducibility contract: equal
// (profile, sites, objects) inputs must yield byte-identical schedule
// encodings and equal digests — what lets an A/B run claim both
// placements faced the same request stream.
func TestScheduleDeterministic(t *testing.T) {
	pr := DefaultProfile()
	pr.Seed = 42
	pr.Rate = 2000
	pr.DurationMS = 500
	pr.Origins = []float64{3, 1, 0, 1}

	a, err := BuildSchedule(4, 50, pr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(4, 50, pr)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.EncodeTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.EncodeTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same profile produced different schedule bytes")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same profile produced different digests: %s vs %s", a.Digest(), b.Digest())
	}
	if len(a.Requests) == 0 {
		t.Fatal("schedule is empty")
	}

	// A different seed must produce a different stream.
	pr.Seed = 43
	c, err := BuildSchedule(4, 50, pr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds produced equal digests")
	}
}

// TestScheduleShape checks the structural invariants every downstream
// consumer relies on: ascending arrival times, sites restricted to the
// positive-weight origins, objects in range, counts consistent.
func TestScheduleShape(t *testing.T) {
	pr := DefaultProfile()
	pr.Rate = 5000
	pr.DurationMS = 400
	pr.WriteFraction = 0.3
	pr.Origins = []float64{1, 0, 2} // site 1 originates nothing

	s, err := BuildSchedule(3, 20, pr)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int64
	prev := time.Duration(-1)
	for _, r := range s.Requests {
		if r.At <= prev {
			t.Fatalf("arrivals not strictly ascending: %v after %v", r.At, prev)
		}
		prev = r.At
		if r.Site == 1 {
			t.Fatal("zero-weight site 1 originated a request")
		}
		if r.Site < 0 || r.Site >= 3 || r.Obj < 0 || r.Obj >= 20 {
			t.Fatalf("request out of range: %+v", r)
		}
		if r.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads != s.Reads || writes != s.Writes {
		t.Fatalf("counts drifted: %d/%d vs %d/%d", reads, writes, s.Reads, s.Writes)
	}
	if s.duration() >= time.Duration(pr.DurationMS)*time.Millisecond {
		t.Fatalf("schedule overran its duration: %v", s.duration())
	}
	// WriteFraction 0.3 over thousands of arrivals: crude sanity band.
	frac := float64(writes) / float64(reads+writes)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("write fraction %.3f far from 0.3", frac)
	}
}

// TestBurstyScheduleConcentratesLoad checks the flash crowd: the burst
// window must carry a far higher arrival rate than the ambient schedule
// and focus on the hottest object.
func TestBurstyScheduleConcentratesLoad(t *testing.T) {
	pr := DefaultProfile()
	pr.Rate = 1000
	pr.DurationMS = 1000
	pr.Arrival = arrivalBursty
	pr.BurstMult = 10
	pr.BurstStartMS = 400
	pr.BurstEndMS = 600
	pr.BurstFocus = 0.9

	s, err := BuildSchedule(4, 50, pr)
	if err != nil {
		t.Fatal(err)
	}
	inBurst, outBurst := 0, 0
	objCount := map[int]int{}
	for _, r := range s.Requests {
		if r.At >= 400*time.Millisecond && r.At < 600*time.Millisecond {
			inBurst++
			objCount[r.Obj]++
		} else {
			outBurst++
		}
	}
	// The 200ms window at 10× rate should hold ~2000 arrivals vs ~800
	// ambient; require a clear majority.
	if inBurst < outBurst {
		t.Fatalf("burst window holds %d arrivals vs %d ambient — no burst", inBurst, outBurst)
	}
	var hot, hotCount int
	for obj, c := range objCount {
		if c > hotCount {
			hot, hotCount = obj, c
		}
	}
	if float64(hotCount) < 0.5*float64(inBurst) {
		t.Fatalf("hottest object %d got only %d of %d burst requests — no focus", hot, hotCount, inBurst)
	}
}

func countsProblem(t *testing.T, m, n int, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, 0.1, 0.2), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFromCountsMatchesCounts: the schedule re-aggregates to r_k(i) and
// w_k(i) exactly, and its Reads/Writes are the problem's totals.
func TestFromCountsMatchesCounts(t *testing.T) {
	p := countsProblem(t, 8, 12, 1)
	s := FromCounts(p, 7)
	reads := make([]int64, p.Sites()*p.Objects())
	writes := make([]int64, p.Sites()*p.Objects())
	var nr, nw int64
	for _, r := range s.Requests {
		if r.Write {
			writes[r.Site*p.Objects()+r.Obj]++
			nw++
		} else {
			reads[r.Site*p.Objects()+r.Obj]++
			nr++
		}
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			if got := reads[i*p.Objects()+k]; got != p.Reads(i, k) {
				t.Fatalf("(%d,%d): %d reads scheduled, r = %d", i, k, got, p.Reads(i, k))
			}
			if got := writes[i*p.Objects()+k]; got != p.Writes(i, k) {
				t.Fatalf("(%d,%d): %d writes scheduled, w = %d", i, k, got, p.Writes(i, k))
			}
		}
	}
	if nr != s.Reads || nw != s.Writes || s.Sites != p.Sites() || s.Objects != p.Objects() {
		t.Fatalf("schedule says %d/%d over %dx%d; it holds %d/%d", s.Reads, s.Writes, s.Sites, s.Objects, nr, nw)
	}
}

// TestFromCountsTimeOrdered: offsets never decrease and stay inside the
// one-second period.
func TestFromCountsTimeOrdered(t *testing.T) {
	s := FromCounts(countsProblem(t, 6, 8, 2), 3)
	for i, r := range s.Requests {
		if r.At < 0 || r.At >= time.Second || i > 0 && r.At < s.Requests[i-1].At {
			t.Fatalf("request %d at %v after %v", i, r.At, s.Requests[max(i-1, 0)].At)
		}
	}
}

// TestFromCountsDeterministic: equal seeds give equal digests, different
// seeds different ones.
func TestFromCountsDeterministic(t *testing.T) {
	p := countsProblem(t, 6, 8, 7)
	if a, b := FromCounts(p, 9).Digest(), FromCounts(p, 9).Digest(); a != b {
		t.Fatalf("same seed, digests %s vs %s", a, b)
	}
	if FromCounts(p, 9).Digest() == FromCounts(p, 10).Digest() {
		t.Fatal("different seeds gave equal digests")
	}
}

// TestScheduleRoundTrip: ReadSchedule inverts EncodeTo — same Digest, same
// counts — for a counts expansion and a profile schedule.
func TestScheduleRoundTrip(t *testing.T) {
	built, err := BuildSchedule(4, 30, DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schedule{FromCounts(countsProblem(t, 5, 6, 4), 5), built} {
		var buf bytes.Buffer
		if err := s.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSchedule(&buf, s.Sites, s.Objects)
		if err != nil {
			t.Fatal(err)
		}
		if back.Digest() != s.Digest() || back.Reads != s.Reads || back.Writes != s.Writes {
			t.Fatalf("round trip: digest %s reads %d writes %d, want %s %d %d",
				back.Digest(), back.Reads, back.Writes, s.Digest(), s.Reads, s.Writes)
		}
	}
	if s, err := ReadSchedule(strings.NewReader(""), 3, 3); err != nil || len(s.Requests) != 0 {
		t.Fatalf("empty input: %v, %v", s, err)
	}
}

// TestReadScheduleValidation: every malformed line is refused with an
// error naming its line and what is wrong, and a JSON-lines trace is
// refused with the message that says how to get a readable one.
func TestReadScheduleValidation(t *testing.T) {
	const legacy = "JSON-lines request traces are no longer read; regenerate with drpgen -trace"
	cases := []struct{ name, in, want string }{
		{"three fields", "5 0 0\n", "line 1: 3 fields"},
		{"five fields", "5 0 0 r 1\n", "line 1: 5 fields"},
		{"blank line", "5 0 0 r\n\n", "line 2: 0 fields"},
		{"fractional offset", "5.5 0 0 r\n", `offset "5.5"`},
		{"word site", "5 a 0 r\n", `site "a"`},
		{"word object", "5 0 b r\n", `object "b"`},
		{"negative offset", "-5 0 0 r\n", `offset "-5"`},
		{"decreasing offset", "9 0 0 r\n9 1 1 w\n5 0 0 r\n", "line 3: offset 5 precedes"},
		{"site past the end", "5 3 0 r\n", `site "3" is not an integer in [0, 3)`},
		{"negative site", "5 -1 0 r\n", `site "-1"`},
		{"object past the end", "5 0 3 w\n", `object "3" is not an integer in [0, 3)`},
		{"op spelled out", "5 0 0 read\n", `op "read"`},
		{"unknown op", "5 0 0 x\n", `op "x"`},
		{"json without site", `{"obj":3,"op":"read"}` + "\n", legacy},
		{"json with extra field", `{"t":-5,"site":0,"obj":0,"op":"read","extra":1}` + "\n", legacy},
		{"json decreasing", `{"t":5,"site":0,"obj":0,"op":"read"}` + "\n" + `{"t":1,"site":0,"obj":0,"op":"write"}` + "\n", legacy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ReadSchedule(strings.NewReader(tc.in), 3, 3)
			if err == nil {
				t.Fatalf("accepted: %d requests", len(s.Requests))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// TestProfileValidate covers the rejection paths the fuzz target also
// exercises.
func TestProfileValidate(t *testing.T) {
	base := DefaultProfile()
	cases := []struct {
		name   string
		mutate func(*Profile)
		substr string
	}{
		{"zero rate", func(p *Profile) { p.Rate = 0 }, "rate"},
		{"negative rate", func(p *Profile) { p.Rate = -1 }, "rate"},
		{"zero duration", func(p *Profile) { p.DurationMS = 0 }, "duration"},
		{"unknown arrival", func(p *Profile) { p.Arrival = "chaotic" }, "arrival"},
		{"burst without bursty", func(p *Profile) { p.BurstMult = 5 }, "burst"},
		{"bursty without mult", func(p *Profile) { p.Arrival = arrivalBursty; p.BurstEndMS = 100 }, "burst_mult"},
		{"burst window outside", func(p *Profile) {
			p.Arrival = arrivalBursty
			p.BurstMult = 2
			p.BurstStartMS = 1900
			p.BurstEndMS = 2500
		}, "burst window"},
		{"bad write fraction", func(p *Profile) { p.WriteFraction = 1.5 }, "write fraction"},
		{"negative skew", func(p *Profile) { p.Skew = -0.1 }, "skew"},
		{"origin count", func(p *Profile) { p.Origins = []float64{1, 1} }, "origin"},
		{"negative origin", func(p *Profile) { p.Origins = []float64{1, -1, 1, 1} }, "origin"},
		{"all-zero origins", func(p *Profile) { p.Origins = []float64{0, 0, 0, 0} }, "origin"},
		{"NaN origin", func(p *Profile) { p.Origins = []float64{1, math.NaN(), 1, 1} }, "origin"},
		{"infinite origin", func(p *Profile) { p.Origins = []float64{math.Inf(1), 1, 1, 1} }, "origin"},
		{"origins overflow", func(p *Profile) { p.Origins = []float64{1e308, 1e308, 1, 0} }, "origin"},
		{"unknown geo", func(p *Profile) { p.Geo = "mars" }, "geo"},
		{"ragged matrix", func(p *Profile) { p.MatrixMS = [][]int64{{0, 1}, {1}} }, "matrix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := base
			tc.mutate(&pr)
			err := pr.validate(4)
			if err == nil {
				t.Fatalf("Validate accepted %+v", pr)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.substr) {
				t.Fatalf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
	if err := base.validate(4); err != nil {
		t.Fatalf("default profile rejected: %v", err)
	}
}

// TestProfileCanonicalRoundTrip checks parse(canonical(p)) == p and that
// unknown fields are rejected.
func TestProfileCanonicalRoundTrip(t *testing.T) {
	pr := DefaultProfile()
	pr.Arrival = arrivalBursty
	pr.BurstMult = 4
	pr.BurstStartMS = 100
	pr.BurstEndMS = 300
	pr.Origins = []float64{1, 2}
	data, err := pr.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("canonical round trip drifted:\n%s\nvs\n%s", data, data2)
	}
	if _, err := parseProfile([]byte(`{"rate": 5, "warp": 9}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestGeoMatrixShapes checks the named profiles produce valid symmetric
// matrices that MatrixPlan accepts.
func TestGeoMatrixShapes(t *testing.T) {
	for _, name := range []string{geoLAN, geoWAN3} {
		for _, m := range []int{1, 2, 4, 7} {
			matrix := geoMatrix(name, m)
			if len(matrix) != m {
				t.Fatalf("%s/%d: %d rows", name, m, len(matrix))
			}
			pr := Profile{Geo: name}
			if _, err := pr.LatencyPlan(m); err != nil {
				t.Fatalf("%s/%d: %v", name, m, err)
			}
		}
	}
	if geoMatrix(GeoNone, 4) != nil {
		t.Fatal("GeoNone must produce no matrix")
	}
	pr := Profile{Geo: GeoNone}
	plan, err := pr.LatencyPlan(4)
	if err != nil || len(plan.Events) != 0 {
		t.Fatalf("GeoNone plan: %d events, err %v", len(plan.Events), err)
	}
}
