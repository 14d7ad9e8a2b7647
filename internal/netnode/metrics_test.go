package netnode

import (
	"fmt"
	"testing"
	"time"

	"drp/internal/metrics"
	"drp/internal/sra"
	"drp/internal/workload"
)

// TestNodeMetricsAccountTraffic drives a full measurement period over TCP
// with instrumentation attached and pins the counters against the ground
// truth the problem defines: request counts, replica-hit split and the NTC
// the cluster accounted.
func TestNodeMetricsAccountTraffic(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(6, 10, 0.05, 0.2), 3)
	if err != nil {
		t.Fatal(err)
	}
	scheme := sra.Run(p, sra.Options{}).Scheme

	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.EnableMetrics(reg)

	total, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}

	var wantReads, wantWrites int64
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			wantReads += p.Reads(i, k)
			wantWrites += p.Writes(i, k)
		}
	}

	counter := func(name string, labels metrics.Labels) int64 {
		return reg.Counter(name, "", labels).Value()
	}
	gotReads := counter("drp_net_replica_reads_total", metrics.Labels{"source": "local"}) +
		counter("drp_net_replica_reads_total", metrics.Labels{"source": "remote"})
	if gotReads != wantReads {
		t.Errorf("replica reads counter = %d, want %d", gotReads, wantReads)
	}
	gotWrites := counter("drp_net_writes_total", metrics.Labels{"role": "primary"}) +
		counter("drp_net_writes_total", metrics.Labels{"role": "remote"})
	if gotWrites != wantWrites {
		t.Errorf("writes counter = %d, want %d", gotWrites, wantWrites)
	}
	gotNTC := counter("drp_net_ntc_total", metrics.Labels{"term": "read"}) +
		counter("drp_net_ntc_total", metrics.Labels{"term": "write"})
	if gotNTC != total {
		t.Errorf("NTC counters = %d, want accounted total %d", gotNTC, total)
	}

	readH := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": "read"})
	writeH := reg.Histogram("drp_net_request_seconds", "", nil, metrics.Labels{"op": "write"})
	if got := readH.Count() + writeH.Count(); got != uint64(wantReads+wantWrites) {
		t.Errorf("latency observations = %d, want %d", got, wantReads+wantWrites)
	}

	// Server-side message counters: every remote read and every remote
	// write's primary 'update' shows up; a fully local workload would be 0.
	if counter("drp_net_messages_total", metrics.Labels{"op": "read"}) == 0 &&
		counter("drp_net_messages_total", metrics.Labels{"op": "update"}) == 0 {
		t.Error("no wire messages counted despite remote traffic")
	}
}

// TestSetMetricsNilDetaches pins that EnableMetrics(nil) stops recording
// without breaking serving.
func TestSetMetricsNilDetaches(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(4, 6, 0.05, 0.2), 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.EnableMetrics(reg)
	c.EnableMetrics(nil)
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	reads := reg.Counter("drp_net_replica_reads_total", "", metrics.Labels{"source": "local"}).Value() +
		reg.Counter("drp_net_replica_reads_total", "", metrics.Labels{"source": "remote"}).Value()
	if reads != 0 {
		t.Fatalf("detached nodes still recorded %d reads", reads)
	}
}

// Regression: the served-message counter used to take its op label
// straight from the wire, so every distinct bogus op minted a new series.
// Unrecognised ops share one "unknown" series, each still refused with
// codeBadOp, and known ops keep their own counts. A batch adds no series:
// each of its records counts under its own op.
func TestUnknownOpsShareOneSeries(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 41)
	c := startCluster(t, p)
	reg := metrics.NewRegistry()
	c.EnableMetrics(reg)
	addr := c.Node(0).Addr()
	const bogus = 100
	for i := 0; i < bogus; i++ {
		// Odd ones also carry an out-of-range object, which is refused
		// before the op is even looked at.
		resp, err := callOnce(addr, message{Op: fmt.Sprintf("bogus-%d", i), Object: -(i % 2)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{codeBadOp, codeBadObject}[i%2]; resp.OK || resp.Code != want {
			t.Fatalf("bogus op %d answered %+v, want code %q", i, resp, want)
		}
	}
	if _, err := callOnce(addr, message{Op: "read", Object: 0}, 0); err != nil {
		t.Fatal(err)
	}
	batch := []message{{Op: "replicas", Object: 0, Sites: []int{p.Primary(0)}}, {Op: "primary", Object: 0, Site: p.Primary(0)}}
	if resp, err := callOnce(addr, message{Op: opBatch, Batch: batch}, 0); err != nil || !resp.OK {
		t.Fatalf("batch: %+v, %v", resp, err)
	}
	series := map[string]float64{}
	for _, in := range reg.Snapshot().Instruments {
		if in.Name == "drp_net_messages_total" {
			series[in.Labels["op"]] = in.Value
		}
	}
	if len(series) != 4 || series["unknown"] != bogus || series["read"] != 1 || series["replicas"] != 1 || series["primary"] != 1 {
		t.Fatalf("served-message series = %v, want unknown=%d, read=1, replicas=1 and primary=1 only", series, bogus)
	}
}

// A remote read on a warm link takes ~14 µs; drp_net_request_seconds must
// resolve that (a 100 µs first bucket reported 50 µs for any such run),
// and its exposition ladder must reach below it without leaking the fine
// buckets.
func TestRequestSecondsResolvesMicroseconds(t *testing.T) {
	reg := metrics.NewRegistry()
	RegisterMetricFamilies(reg)
	nm := newNodeMetrics(reg)
	const lat = 14 * time.Microsecond
	for i := 0; i < 1000; i++ {
		nm.read(false, false, 0, lat)
	}
	p50 := nm.readSeconds.Quantile(0.50)
	if p50 < lat.Seconds() || p50 > lat.Seconds()*(1+1.0/128) {
		t.Fatalf("p50 = %gs, want within 1/128 above %gs", p50, lat.Seconds())
	}
	for _, is := range reg.Snapshot().Instruments {
		if is.Name != "drp_net_request_seconds" {
			continue
		}
		if n := len(is.Buckets) + 1; n > 24 || is.Buckets[0].LE >= 1e-4 { // +1: the +Inf row
			t.Fatalf("%v: %d le rows from %g, want ≤ 24 starting below 1e-04", is.Labels, n, is.Buckets[0].LE)
		}
	}
}
