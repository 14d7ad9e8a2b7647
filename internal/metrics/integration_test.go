package metrics_test

// Integration tests for the telemetry layer against the real solvers and
// simulators: the determinism contract (identical counter/histogram
// snapshots at any worker count) and the HTTP exposition endpoint serving
// the solver, cluster-epoch and netnode families together.

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"drp/internal/agra"
	"drp/internal/cluster"
	"drp/internal/gra"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/solver"
	"drp/internal/sra"
	"drp/internal/workload"
)

// setProcs sets GOMAXPROCS, which sizes the solvers' worker pools, to n
// until the test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// deterministicJSON renders the comparable part of a registry: counters and
// histograms minus wall-clock series.
func deterministicJSON(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	data, err := json.Marshal(reg.Snapshot().Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestInstrumentedGRASnapshotsIdenticalAcrossWorkers(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(12, 24, 0.05, 0.2), 7)
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(procs int) string {
		setProcs(t, procs)
		reg := metrics.NewRegistry()
		params := gra.DefaultParams()
		params.PopSize = 16
		params.Generations = 10
		params.Seed = 3
		res, err := gra.RunWith(p, params, solver.Run{Observer: metrics.BridgeObserver(reg, nil, nil)})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		metrics.RecordStats(reg, "gra", res.Stats, nil)
		return deterministicJSON(t, reg)
	}
	serial := runAt(1)
	if wide := runAt(8); wide != serial {
		t.Fatalf("GOMAXPROCS=8 deterministic snapshot diverged from GOMAXPROCS=1:\n8: %s\n1: %s", wide, serial)
	}
	if !strings.Contains(serial, "drp_solver_iterations_total") {
		t.Fatalf("snapshot missing solver instruments: %s", serial)
	}
}

func TestInstrumentedClusterSnapshotsIdenticalAcrossWorkers(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(8, 16, 0.05, 0.2), 11)
	if err != nil {
		t.Fatal(err)
	}
	initial := sra.Run(p, sra.Options{}).Scheme
	runAt := func(procs int) string {
		setProcs(t, procs)
		reg := metrics.NewRegistry()
		graParams := gra.DefaultParams()
		graParams.PopSize = 10
		graParams.Generations = 6
		if _, err := cluster.Run(p, initial, clusterConfig(graParams, reg)); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return deterministicJSON(t, reg)
	}
	serial := runAt(1)
	if wide := runAt(8); wide != serial {
		t.Fatalf("GOMAXPROCS=8 deterministic snapshot diverged from GOMAXPROCS=1:\n8: %s\n1: %s", wide, serial)
	}
	for _, family := range []string{"drp_cluster_epochs_total", "drp_cluster_serve_ntc_total", "drp_solver_iterations_total"} {
		if !strings.Contains(serial, family) {
			t.Fatalf("snapshot missing %s: %s", family, serial)
		}
	}
}

func TestMetricsEndpointServesAllFamilies(t *testing.T) {
	p, err := workload.Generate(workload.NewSpec(6, 10, 0.05, 0.2), 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	metrics.RegisterSolverFamilies(reg, "agra+mini")
	cluster.RegisterMetricFamilies(reg)
	netnode.RegisterMetricFamilies(reg)

	// Drive all three layers into the shared registry: a cluster simulation
	// (epoch + solver families) and real TCP traffic (netnode families).
	initial := sra.Run(p, sra.Options{}).Scheme
	graParams := gra.DefaultParams()
	graParams.PopSize = 8
	graParams.Generations = 4
	if _, err := cluster.Run(p, initial, clusterConfig(graParams, reg)); err != nil {
		t.Fatal(err)
	}
	net, err := netnode.StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.EnableMetrics(reg)
	if _, err := net.DriveTraffic(); err != nil {
		t.Fatal(err)
	}

	srv, err := metrics.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	for _, family := range []string{
		"drp_solver_iterations_total", "drp_solver_runs_total",
		"drp_cluster_epochs_total", "drp_cluster_serve_ntc_total", "drp_cluster_adapt_seconds_bucket",
		"drp_net_request_seconds_bucket", "drp_net_replica_reads_total", "drp_net_messages_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(body, "# TYPE drp_cluster_epochs_total counter") {
		t.Errorf("/metrics missing TYPE metadata:\n%.2000s", body)
	}

	vars := httpGet(t, "http://"+srv.Addr()+"/debug/vars")
	if !strings.Contains(vars, "drp_metrics") {
		t.Errorf("/debug/vars missing published registry")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body)
}

// clusterConfig builds a small adaptive simulation wired to reg.
func clusterConfig(graParams gra.Params, reg *metrics.Registry) cluster.Config {
	return cluster.Config{
		Epochs:     3,
		Policy:     cluster.PolicyAGRAMini,
		Drift:      &workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5},
		Threshold:  2.0,
		GRAParams:  graParams,
		AGRAParams: agra.DefaultParams(),
		Seed:       1,
		Metrics:    reg,
	}
}
