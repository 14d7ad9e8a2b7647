package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// value is one reported number. N > 1 marks a median over N measured
// rounds with its quartiles alongside.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics under their declared names.
type metricSet map[string]value

// put records a single measurement; the unit comes from the declaration,
// so an undeclared name is a bug in the benchmark.
func (m metricSet) put(name string, v float64) {
	d, ok := declared[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if _, dup := m[name]; dup {
		panic("bench: metric emitted twice: " + name)
	}
	m[name] = value{Value: v, Unit: d.Unit}
}

// putRounds records the median over measured rounds with its quartiles.
func (m metricSet) putRounds(name string, vals []float64) {
	q1, med, q3 := quartiles(vals)
	m.put(name, med)
	v := m[name]
	v.Q1, v.Q3, v.N = q1, q3, len(vals)
	m[name] = v
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads printed here match the driver's.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}

// percentile returns the p-quantile (0..1) of sorted ns values by the
// nearest-rank rule, which never understates.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// result is one workload's outcome, the unit of the report file.
type result struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	StreamDigest string    `json:"stream_digest"`
	K            int       `json:"k"`      // operations per round
	Rounds       int       `json:"rounds"` // measured rounds behind the medians
	Attempted    int64     `json:"attempted"`
	Failed       int64     `json:"failed"`
	Correct      bool      `json:"correct"`
	Flags        []string  `json:"flags,omitempty"` // e.g. fsync_is_free
	Metrics      metricSet `json:"metrics"`
}

// report is the file `bench -out` writes and `bench compare` reads.
type report struct {
	NProc     int      `json:"nproc"`
	GoVersion string   `json:"go_version"`
	Commit    string   `json:"commit"`
	Seed      uint64   `json:"seed"`
	Quick     bool     `json:"quick,omitempty"`
	Workloads []result `json:"workloads"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric of a result by name with its unit.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  k=%d  rounds=%d  digest=%.12s  attempted=%d failed=%d correct=%v %s\n",
		r.Workload, r.Seed, r.K, r.Rounds, r.StreamDigest, r.Attempted, r.Failed, r.Correct, strings.Join(r.Flags, ","))
	row := func(d metric, kind string) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		spread := ""
		if v.N > 1 {
			spread = fmt.Sprintf("  [q1 %.6g  q3 %.6g  n=%d]", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintf(w, "  %-9s %-32s %14.6g %-8s%s\n", kind, d.Name, v.Value, v.Unit, spread)
	}
	for _, d := range endToEnd {
		row(d, "e2e")
	}
	for _, d := range perLayer {
		row(d, "layer")
	}
}

// contractLine renders the driver's result object: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1 (0 where the
// workload does not exercise the layer).
func (r *result) contractLine(trace int) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			if trace == 0 {
				return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			v = value{Unit: d.Unit}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
		out.Metrics[d.Name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
