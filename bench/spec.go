package main

// This file is the benchmark's vocabulary: the five workloads and every
// metric name with its unit and direction. BENCHMARK.json at the repo root
// is generated from these tables (`go run . manifest`); a test fails when
// the two drift apart.

// Workload names (normative: later issues cite them).
const (
	wWireRead    = "wire_read"
	wDurableRW   = "durable_rw"
	wMixedSRA    = "mixed_sra"
	wSolveDense  = "solve_dense"
	wSolveSparse = "solve_sparse"
)

// instanceSeed fixes the problem instance of every workload. --seed shapes
// only the request stream (data plane) or the change event (solvers): the
// instance decides replica degree, remote share and solver savings, which
// move timings and NTC by several percent from one instance to the next —
// more than the regression bounds — whereas streams over one instance
// differ only by sampling noise.
const instanceSeed = 1

// workloadSpec is one named set of inputs.
type workloadSpec struct {
	Name string
	Why  string // one line; copied into BENCHMARK.json

	// Data-plane shape (Solver == "").
	Sites, Objects   int
	Update, Capacity float64
	Zipf             float64 // > 0: workload.GenerateZipf instance, stream follows its pattern
	Durable          bool    // StartDurable with fsync every 16 appends (see durableOpts)
	PlaceSRA         bool    // deploy SRA's scheme (else primaries only)
	WriteFrac        float64
	K, QuickK        int     // requests per round
	OpenRate         float64 // open-loop offered rate, req/s (frozen, see README)
	Foreground       string  // op class behind op_p50_ms: "read" or "write"

	// Solver shape.
	Solver         string // "dense" or "sparse"
	N, QuickN      int    // objects (sites fixed by the workload)
	Adapts         int    // adaptation ops per round
	Rounds, QuickR int    // measured rounds in full mode
}

var workloads = []workloadSpec{
	{
		Name:  wWireRead,
		Why:   "read-only over primaries-only placement, memory store: 5/6 of reads are one dial + JSON round trip, so netnode's transport does nearly all the work",
		Sites: 6, Objects: 120, Update: 0.05, Capacity: 0.15,
		K: 40000, QuickK: 300, OpenRate: 6000, Foreground: "read",
		Rounds: 5, QuickR: 2,
	},
	{
		Name:  wDurableRW,
		Why:   "50% writes on WAL-backed nodes, fsync every 16 appends, SRA at C=0.3: every write and remote read appends to a WAL, so store's append path is on every blocking step",
		Sites: 6, Objects: 120, Update: 0.05, Capacity: 0.30,
		Durable: true, PlaceSRA: true, WriteFrac: 0.5,
		K: 12000, QuickK: 60, OpenRate: 3000, Foreground: "write",
		Rounds: 5, QuickR: 2,
	},
	{
		Name:  wMixedSRA,
		Why:   "the paper's regime: Zipf 0.8 pattern, SRA at C=0.5, 10% writes, memory store: most reads are local, so placement quality and broadcast fan-out dominate",
		Sites: 6, Objects: 120, Update: 0.05, Capacity: 0.50, Zipf: 0.8,
		PlaceSRA: true, WriteFrac: 0.10,
		K: 60000, QuickK: 600, OpenRate: 8000, Foreground: "write",
		Rounds: 5, QuickR: 2,
	},
	{
		Name:   wSolveDense,
		Why:    "the paper's adaptive test case (M=50, N=200, U=5%, C=15%): SRA, GRA, then AGRA+mini-GRA after a pattern change; core's evaluator, delta and pool do the work",
		Solver: "dense", Sites: 50, N: 200, QuickN: 40, Update: 0.05, Capacity: 0.15,
		Adapts: 5, Rounds: 3, QuickR: 2,
	},
	{
		Name:   wSolveSparse,
		Why:    "sparse.Solve then sparse.Adapt on a 5% perturbation at M=64, N=200000: the CSR evaluator and sharded greedy do the work and dense core none",
		Solver: "sparse", Sites: 64, N: 200000, QuickN: 3000, Capacity: 0.15,
		Adapts: 3, Rounds: 3, QuickR: 2,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric declares one reported number.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// endToEnd are the driver-gated metrics. The driver's contract wants every
// one of them, never zero, on every workload, so this list holds only what
// all five workloads have; the workload-specific end-to-end numbers the
// issue names (read/write percentiles, recover_s, solve_s, …) live in
// perLayer under the "e2e." prefix and are gated by `bench compare`.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"round_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ntc_per_req", "ntc/req", "lower", 0.03},
	{"rss_mb", "MB", "lower", 0.20},
}

func lower(name, unit string) metric  { return metric{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metric { return metric{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the single-layer metrics (prefix = module) plus the
// workload-specific end-to-end ones ("e2e."). A metric a workload does not
// exercise is absent from the full report and 0 in the driver's --trace 1
// line, which must carry every name.
var perLayer = []metric{
	// Workload-specific end-to-end numbers, measured with tracing and
	// metrics off; compare.go holds their bounds.
	higher("e2e.throughput_rps", "1/s"),
	lower("e2e.read_p50_ms", "ms"), lower("e2e.read_p90_ms", "ms"), lower("e2e.read_p99_ms", "ms"),
	lower("e2e.write_p50_ms", "ms"), lower("e2e.write_p90_ms", "ms"), lower("e2e.write_p99_ms", "ms"),
	lower("e2e.recover_s", "s"),
	lower("e2e.solve_s", "s"), lower("e2e.adapt_s", "s"),
	higher("e2e.savings_pct", "%"), higher("e2e.adapt_savings_pct", "%"),
	lower("e2e.fail_frac", "frac"),

	lower("netnode.rpc_dial_us", "us"), lower("netnode.rpc_conn_us", "us"),
	lower("netnode.rpc_allocs", "count"), lower("netnode.rpc_bytes", "B"),
	lower("netnode.read_remote_us", "us"), lower("netnode.write_remote_us", "us"),
	lower("netnode.msgs_per_req", "count"), lower("netnode.retries", "count"), lower("netnode.timeouts", "count"),
	lower("netnode.read_local_ns", "ns"), lower("netnode.read_local_par_ns", "ns"),
	lower("netnode.remote_frac", "frac"), lower("netnode.syncs_per_write", "count"),
	lower("netnode.boot_ms", "ms"), lower("netnode.deploy_ms", "ms"),

	lower("store.fsync_probe_us", "us"),
	lower("store.append_always_us", "us"), lower("store.append_every16_us", "us"), lower("store.append_never_us", "us"),
	lower("store.append_par_always_us", "us"), lower("store.fsyncs_per_append_par", "count"),
	lower("store.wal_bytes_per_append", "B"),
	lower("store.appends_per_read", "count"), lower("store.appends_per_write", "count"),
	lower("store.appends_per_req", "count"), lower("store.fsyncs_per_req", "count"),
	lower("store.replay_us_per_record", "us"), lower("store.snapshot_ms", "ms"),

	lower("trace.read_self_us", "us"), lower("trace.read_hop_self_us", "us"),
	lower("trace.rpc_read_self_us", "us"), lower("trace.serve_read_self_us", "us"),
	lower("trace.write_self_us", "us"), lower("trace.write_ship_self_us", "us"),
	lower("trace.rpc_update_self_us", "us"), lower("trace.serve_update_self_us", "us"),
	lower("trace.sync_self_us", "us"), lower("trace.rpc_sync_self_us", "us"),
	lower("trace.serve_sync_self_us", "us"), lower("trace.wal_append_self_us", "us"),

	lower("spans.record_ns", "ns"), lower("spans.encode_ns", "ns"), lower("spans.per_req", "count"),
	higher("spans.coverage", "frac"), lower("spans.overhead_frac", "frac"),
	lower("metrics.counter_inc_ns", "ns"), lower("metrics.hist_observe_ns", "ns"), lower("metrics.overhead_frac", "frac"),
	lower("load.hist_record_ns", "ns"), lower("load.sched_build_ns_per_req", "ns"),
	lower("fault.passthrough_us", "us"),

	lower("proc.cpu_us_per_req", "us"), lower("proc.allocs_per_req", "count"),
	lower("proc.alloc_bytes_per_req", "B"), lower("proc.gc_pause_ms", "ms"),

	lower("client.loop_overhead_ns", "ns"), lower("client.round_iqr_frac", "frac"), lower("client.read_p999_ms", "ms"),
	lower("client.open_offered_rps", "1/s"), higher("client.open_achieved_frac", "frac"),
	lower("client.open_late_p50_us", "us"), lower("client.open_late_p99_us", "us"),
	lower("client.open_read_p50_ms", "ms"), lower("client.open_read_p99_ms", "ms"),
	lower("client.open_write_p50_ms", "ms"), lower("client.open_write_p99_ms", "ms"),

	lower("core.eval_us", "us"), lower("core.delta_ns", "ns"), lower("core.evalpool_us", "us"),
	lower("sra.solve_ms", "ms"), higher("sra.savings_pct", "%"),
	lower("gra.generation_ms", "ms"), lower("gra.solve_s", "s"), lower("gra.evals", "count"), higher("gra.evals_per_s", "1/s"),
	lower("agra.micro_ms", "ms"), lower("agra.evals", "count"), lower("agra.changed_objects", "count"),
	lower("sparse.gen_s", "s"), lower("sparse.nnz", "count"), lower("sparse.candidates_per_obj", "count"),
	lower("sparse.eval_ms", "ms"), lower("sparse.delta_ns", "ns"),
	lower("sparse.solve_evals", "count"), higher("sparse.solve_evals_per_s", "1/s"),
	lower("sparse.adapt_evals", "count"), lower("sparse.bytes_per_nnz", "B"),
	lower("workload.generate_ms", "ms"),
}

// declared indexes every metric by name.
var declared = func() map[string]metric {
	m := make(map[string]metric, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// runSeconds is the driver's measuring time per run (BENCHMARK.json).
const runSeconds = 15
