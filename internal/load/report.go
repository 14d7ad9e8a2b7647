package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Report is one run's canonical outcome record — what drpload prints as
// text and writes as BENCH_load.json. Every number the SLO gate or the
// A/B comparison consumes lives here, so a CI artifact is sufficient to
// re-audit a gating decision.
type Report struct {
	// Scheme labels the placement under test (e.g. "sra", "none", or a
	// scheme file path).
	Scheme string `json:"scheme"`
	// Sites/Objects are the cluster dimensions.
	Sites   int `json:"sites"`
	Objects int `json:"objects"`
	// Profile is the load profile the schedule was built from.
	Profile Profile `json:"profile"`
	// ScheduleDigest fingerprints the exact request stream; equal digests
	// mean identical streams (the A/B honesty check).
	ScheduleDigest string `json:"schedule_digest"`
	// Requests breaks down the schedule by op.
	Requests struct {
		Total  int64 `json:"total"`
		Reads  int64 `json:"reads"`
		Writes int64 `json:"writes"`
	} `json:"requests"`
	// Read/Write are the measured latency ladders per op.
	Read  Summary `json:"read"`
	Write Summary `json:"write"`
	// OfferedRPS/AchievedRPS compare the schedule's arrival rate to the
	// completion rate the system sustained.
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Errors breaks down non-served outcomes.
	Errors struct {
		ReadsFailed  int64    `json:"reads_failed"`
		WritesQueued int64    `json:"writes_queued"`
		Unexplained  int64    `json:"unexplained"`
		Samples      []string `json:"samples,omitempty"`
	} `json:"errors"`
	// NTC is the run's network transfer cost (eq. 4 units) as accounted by
	// the data plane.
	NTC struct {
		Read  int64 `json:"read"`
		Write int64 `json:"write"`
		Total int64 `json:"total"`
	} `json:"ntc"`
	// SLO is the gate evaluation (empty Expr when no gate was given).
	SLO SLOResult `json:"slo"`
	// Metrics is the drp_net_* cross-check, when a registry was attached.
	Metrics *MetricsCheck `json:"metrics,omitempty"`
}

// BuildReport assembles a report from a run. slo may be nil (vacuous
// pass) and mc may be nil (no registry attached).
func BuildReport(scheme string, pr Profile, sched *Schedule, res *Result, slo *SLO, mc *MetricsCheck) *Report {
	rep := &Report{
		Scheme:         scheme,
		Sites:          sched.Sites,
		Objects:        sched.Objects,
		Profile:        pr,
		ScheduleDigest: res.Digest,
		Read:           summarize(res.ReadHist),
		Write:          summarize(res.WriteHist),
		OfferedRPS:     res.Offered,
		AchievedRPS:    res.Achieved,
		ElapsedMS:      float64(res.Elapsed.Nanoseconds()) / 1e6,
		SLO:            slo.Eval(res),
		Metrics:        mc,
	}
	rep.Requests.Total = int64(len(sched.Requests))
	rep.Requests.Reads = sched.Reads
	rep.Requests.Writes = sched.Writes
	rep.Errors.ReadsFailed = res.ReadsFailed
	rep.Errors.WritesQueued = res.WritesQueued
	rep.Errors.Unexplained = res.Unexplained
	rep.Errors.Samples = res.ErrSamples
	rep.NTC.Read = res.NTCRead
	rep.NTC.Write = res.NTCWrite
	rep.NTC.Total = res.ntc()
	return rep
}

// Canonical returns the report's canonical JSON: fixed field order,
// two-space indent, trailing newline — the BENCH_load.json format.
func (r *Report) Canonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("load: encode report: %w", err)
	}
	return buf.Bytes(), nil
}

// Text renders the report for a terminal.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "drpload: scheme=%s sites=%d objects=%d seed=%d arrival=%s geo=%s\n",
		r.Scheme, r.Sites, r.Objects, r.Profile.Seed, r.Profile.Arrival, r.geoName())
	fmt.Fprintf(&b, "  schedule: %d requests (%d reads, %d writes) over %.0fms, digest %.12s…\n",
		r.Requests.Total, r.Requests.Reads, r.Requests.Writes, float64(r.Profile.DurationMS), r.ScheduleDigest)
	fmt.Fprintf(&b, "  offered %.1f req/s, achieved %.1f req/s (%.1f%%), elapsed %.0fms\n",
		r.OfferedRPS, r.AchievedRPS, 100*safeRatio(r.AchievedRPS, r.OfferedRPS), r.ElapsedMS)
	fmt.Fprintf(&b, "  read : %s\n", r.Read)
	fmt.Fprintf(&b, "  write: %s\n", r.Write)
	fmt.Fprintf(&b, "  errors: reads_failed=%d writes_queued=%d unexplained=%d\n",
		r.Errors.ReadsFailed, r.Errors.WritesQueued, r.Errors.Unexplained)
	for _, s := range r.Errors.Samples {
		fmt.Fprintf(&b, "    sample: %s\n", s)
	}
	fmt.Fprintf(&b, "  ntc: read=%d write=%d total=%d\n", r.NTC.Read, r.NTC.Write, r.NTC.Total)
	if r.Metrics != nil {
		verdict := "MATCH"
		if !r.Metrics.Match {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(&b, "  metrics cross-check: %s (%s)\n", verdict, r.Metrics.Describe())
	}
	if r.SLO.Expr != "" {
		verdict := "PASS"
		if !r.SLO.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  slo %q: %s\n", r.SLO.Expr, verdict)
		for _, t := range r.SLO.Terms {
			mark := "ok"
			if !t.Pass {
				mark = "VIOLATED"
			}
			fmt.Fprintf(&b, "    %-16s actual=%.3f bound=%.3f %s\n", t.Term, t.Actual, t.Bound, mark)
		}
	}
	return b.String()
}

func (r *Report) geoName() string {
	if len(r.Profile.MatrixMS) > 0 {
		return "matrix"
	}
	if r.Profile.Geo == "" {
		return GeoNone
	}
	return r.Profile.Geo
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Compare holds an A/B run: the same schedule replayed against two
// placements, with the latency and NTC deltas that decide which scheme
// actually serves users faster and cheaper.
type Compare struct {
	A *Report `json:"a"`
	B *Report `json:"b"`
	// SameSchedule confirms both runs drove byte-identical request
	// streams; a comparison without it is meaningless.
	SameSchedule bool `json:"same_schedule"`
	Delta        struct {
		// ReadP99MS/WriteP99MS are B minus A (negative = B faster).
		ReadP99MS  float64 `json:"read_p99_ms"`
		WriteP99MS float64 `json:"write_p99_ms"`
		ReadP50MS  float64 `json:"read_p50_ms"`
		WriteP50MS float64 `json:"write_p50_ms"`
		// NTC is B minus A in eq. 4 cost units (negative = B cheaper).
		NTC int64 `json:"ntc"`
	} `json:"delta"`
}

// NewCompare assembles the A/B record and its deltas.
func NewCompare(a, b *Report) *Compare {
	c := &Compare{A: a, B: b, SameSchedule: a.ScheduleDigest == b.ScheduleDigest && a.ScheduleDigest != ""}
	c.Delta.ReadP99MS = b.Read.P99MS - a.Read.P99MS
	c.Delta.WriteP99MS = b.Write.P99MS - a.Write.P99MS
	c.Delta.ReadP50MS = b.Read.P50MS - a.Read.P50MS
	c.Delta.WriteP50MS = b.Write.P50MS - a.Write.P50MS
	c.Delta.NTC = b.NTC.Total - a.NTC.Total
	return c
}

// Canonical returns the comparison's canonical JSON (the BENCH_load.json
// format in -compare mode).
func (c *Compare) Canonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return nil, fmt.Errorf("load: encode comparison: %w", err)
	}
	return buf.Bytes(), nil
}

// Text renders the comparison for a terminal.
func (c *Compare) Text() string {
	var b strings.Builder
	b.WriteString(c.A.Text())
	b.WriteString(c.B.Text())
	sched := "IDENTICAL"
	if !c.SameSchedule {
		sched = "DIFFERENT — comparison invalid"
	}
	fmt.Fprintf(&b, "compare %s vs %s (schedules %s):\n", c.A.Scheme, c.B.Scheme, sched)
	fmt.Fprintf(&b, "  read  p50 %+.3fms  p99 %+.3fms\n", c.Delta.ReadP50MS, c.Delta.ReadP99MS)
	fmt.Fprintf(&b, "  write p50 %+.3fms  p99 %+.3fms\n", c.Delta.WriteP50MS, c.Delta.WriteP99MS)
	fmt.Fprintf(&b, "  ntc   %+d (%s minus %s)\n", c.Delta.NTC, c.B.Scheme, c.A.Scheme)
	return b.String()
}
