// Package drp is a library for data replication in large distributed
// systems, reproducing Loukopoulos & Ahmad, "Static and Adaptive Data
// Replication Algorithms for Fast Information Access in Large Distributed
// Systems" (ICDCS 2000).
//
// Given M sites with storage capacities, N objects with sizes and fixed
// primary copies, per-(site, object) read/write frequencies and a
// site-to-site transfer cost matrix, the Data Replication Problem (DRP)
// asks for the replica placement minimising total network transfer cost
// (NTC) — reads served by the nearest replica, writes shipped to the primary
// and broadcast to all replicas. The decision problem is NP-complete, so this
// package provides the paper's three heuristics and a fourth of its own:
//
//   - SRA — a fast greedy that replicates by benefit-per-storage-unit,
//   - GRA — a genetic algorithm over placement matrices, slower but
//     substantially better once updates or tight capacities bite,
//   - Adapt (AGRA) — an online micro-GA that re-optimises just the objects
//     whose read/write pattern shifted, optionally polished by a few
//     mini-GRA generations, and
//   - SparseGreedy — a sharded greedy over a candidate-pruned sparse model,
//     between SRA and GRA in savings at a fraction of GRA's time.
//
// The typical flow:
//
//	p, _ := drp.Generate(drp.NewSpec(50, 200, 0.05, 0.15), seed)
//	res, _ := drp.GRA(p, drp.DefaultGRAParams())
//	fmt.Printf("saves %.1f%% of transfer cost\n", res.Scheme.Savings())
//
// Problems can also be built from explicit topologies and patterns via
// NewProblem, or loaded from JSON via ReadProblem.
//
// # Parallelism
//
// GRA, Adapt, SparseGreedy and the experiment harness fan cost evaluation
// out across GOMAXPROCS worker goroutines; GOMAXPROCS=1 runs fully serial.
// All randomness stays on the coordinating goroutine, so for a fixed seed
// results are bit-identical at every worker count — except that a
// SparseGreedy run stopped by its Budget depends on the core count. Adapt
// under a Budget runs its micro-GAs one at a time, so it does not.
//
// # Anytime runs
//
// Every solver has a With-variant (SRAWithOptions, GRAWith, GRAContinue,
// AdaptWith, HillClimbWith, OptimalWith; SparseGreedy is one) accepting RunOptions: a
// context.Context, a wall-clock Timeout, an evaluation Budget and a
// progress Observer. Interruption is checked only at generation/iteration
// boundaries, so an uninterrupted run is bit-identical to one without
// controls, a GRA run cancelled after generation g returns exactly what a
// Generations=g run would, and an interrupted run always returns the best
// valid scheme found so far. Each result's SolverStats records the
// evaluations, iterations, elapsed time and the StopReason.
package drp

import (
	"io"

	"drp/internal/agra"
	"drp/internal/baseline"
	"drp/internal/bitset"
	"drp/internal/cluster"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/netsim"
	"drp/internal/solver"
	"drp/internal/sparse"
	"drp/internal/sra"
	"drp/internal/workload"
	"drp/internal/xrand"
)

// Core problem types.
type (
	// Problem is an immutable DRP instance: sites, objects, patterns,
	// capacities, primaries and the transfer cost matrix.
	Problem = core.Problem
	// ProblemConfig carries explicit inputs into NewProblem.
	ProblemConfig = core.Config
	// Scheme is a replication placement satisfying the capacity and
	// primary-copy constraints.
	Scheme = core.Scheme
	// Evaluator computes NTC for raw placement matrices.
	Evaluator = core.Evaluator
	// NearestTable tracks each site's nearest replica per object.
	NearestTable = core.NearestTable
	// PlacementBits is a raw site-major placement bit matrix, the genetic
	// algorithms' chromosome representation (see Scheme.Bits).
	PlacementBits = bitset.Set
)

// Network substrate types.
type (
	// Topology is an undirected weighted site graph.
	Topology = netsim.Topology
	// DistMatrix is an all-pairs shortest-path transfer cost matrix.
	DistMatrix = netsim.DistMatrix
)

// Workload generation types.
type (
	// Spec parameterises the paper's random instance generator.
	Spec = workload.Spec
	// ZipfSpec parameterises the Zipf-popularity workload extension.
	ZipfSpec = workload.ZipfSpec
	// ChangeSpec parameterises a read/write pattern shift.
	ChangeSpec = workload.ChangeSpec
	// Change reports one object's pattern shift.
	Change = workload.Change
)

// Algorithm parameter and result types.
type (
	// SRAOptions tunes the greedy: a non-nil RNG visits sites at random.
	SRAOptions = sra.Options
	// SRAResult is the greedy's scheme plus run accounting.
	SRAResult = sra.Result
	// GRAParams are the genetic algorithm's control parameters.
	GRAParams = gra.Params
	// GRAResult is the genetic algorithm's outcome.
	GRAResult = gra.Result
	// AGRAParams are the adaptive micro-GA's control parameters.
	AGRAParams = agra.Params
	// AdaptInput bundles one adaptation event.
	AdaptInput = agra.Input
	// AdaptResult is the adaptation outcome.
	AdaptResult = agra.Result
	// HillClimbResult is the local-search outcome with move and evaluation
	// accounting.
	HillClimbResult = baseline.HillClimbResult
	// OptimalResult is the exhaustive search outcome; its scheme is the
	// true optimum only when the run completed.
	OptimalResult = baseline.OptimalResult
)

// Anytime solver runtime types (see the package comment's "Anytime runs").
type (
	// RunOptions carries a run's anytime controls: Context, Timeout,
	// Budget, Observer. The zero value runs open-loop to completion.
	RunOptions = solver.Run
	// SolverStats is the uniform run accounting attached to every result:
	// evaluations, iterations, elapsed and the stop reason.
	SolverStats = solver.Stats
	// SolverProgress is one per-iteration observation.
	SolverProgress = solver.Progress
	// SolverObserver receives SolverProgress events.
	SolverObserver = solver.Observer
	// ObserverFunc adapts a function to SolverObserver.
	ObserverFunc = solver.ObserverFunc
	// StopReason says why a run ended: completed, cancelled, deadline or
	// budget.
	StopReason = solver.StopReason
)

// Stop reasons.
const (
	StopCompleted = solver.StopCompleted
	StopCancelled = solver.StopCancelled
	StopDeadline  = solver.StopDeadline
	StopBudget    = solver.StopBudget
)

// SynchronizedObserver wraps an observer with a mutex for solvers that emit
// progress from concurrent workers (AdaptWith with GOMAXPROCS > 1, the
// experiment harness).
func SynchronizedObserver(o SolverObserver) SolverObserver { return solver.Synchronized(o) }

// Cluster simulation types (see ClusterRun).
type (
	// ClusterConfig drives a cluster simulation.
	ClusterConfig = cluster.Config
	// ClusterPolicy selects the simulated monitor's adaptation strategy.
	ClusterPolicy = cluster.Policy
	// ClusterResult reports per-epoch simulation statistics.
	ClusterResult = cluster.Result
	// EpochStats is one epoch of simulated traffic.
	EpochStats = cluster.EpochStats
)

// Cluster monitor policies.
const (
	PolicyNone     = cluster.PolicyNone
	PolicySRA      = cluster.PolicySRA
	PolicyAGRA     = cluster.PolicyAGRA
	PolicyAGRAMini = cluster.PolicyAGRAMini
	PolicyGRA      = cluster.PolicyGRA
)

// NewProblem validates cfg and builds a DRP instance.
func NewProblem(cfg ProblemConfig) (*Problem, error) { return core.NewProblem(cfg) }

// ReadProblem parses a JSON-encoded problem.
func ReadProblem(r io.Reader) (*Problem, error) { return core.ReadProblem(r) }

// ReadScheme parses a JSON-encoded scheme against p.
func ReadScheme(p *Problem, r io.Reader) (*Scheme, error) { return core.ReadScheme(p, r) }

// NewScheme returns the primaries-only allocation for p.
func NewScheme(p *Problem) *Scheme { return core.NewScheme(p) }

// NewEvaluator returns a reusable NTC evaluator for raw placement matrices.
// Not safe for concurrent use; create one per goroutine.
func NewEvaluator(p *Problem) *Evaluator { return core.NewEvaluator(p) }

// RebindScheme re-validates a scheme's placements against another problem —
// typically the same system carrying new read/write patterns (see
// ApplyChange). The two problems must agree on sites, objects, sizes,
// capacities and primaries.
func RebindScheme(p *Problem, s *Scheme) (*Scheme, error) {
	return core.SchemeFromBits(p, s.Bits())
}

// SchemeFromBits rebuilds a Scheme from a raw placement matrix, validating
// both DRP constraints.
func SchemeFromBits(p *Problem, bits *PlacementBits) (*Scheme, error) {
	return core.SchemeFromBits(p, bits)
}

// NewSpec returns the paper's workload constants for M sites and N objects
// with update ratio u and capacity ratio c (fractions, e.g. 0.05 and 0.15).
func NewSpec(sites, objects int, u, c float64) Spec {
	return workload.NewSpec(sites, objects, u, c)
}

// Generate builds a random instance per the paper's Section 6.1 generator.
func Generate(spec Spec, seed uint64) (*Problem, error) {
	return workload.Generate(spec, seed)
}

// NewZipfSpec returns a workload spec with Zipf-skewed object popularity
// (skew 0 = uniform; web traces commonly fit 0.6–1.0).
func NewZipfSpec(sites, objects int, u, c, skew float64) ZipfSpec {
	return workload.NewZipfSpec(sites, objects, u, c, skew)
}

// GenerateZipf builds a random instance with Zipf-skewed popularity.
func GenerateZipf(spec ZipfSpec, seed uint64) (*Problem, error) {
	return workload.GenerateZipf(spec, seed)
}

// ApplyChange perturbs p's patterns per spec (Section 6.3) and returns the
// shifted problem plus per-object change records.
func ApplyChange(p *Problem, spec ChangeSpec, seed uint64) (*Problem, []Change, error) {
	return workload.ApplyChange(p, spec, seed)
}

// SRA runs the greedy Static Replication Algorithm with round-robin site
// visits.
func SRA(p *Problem) *SRAResult {
	return sra.Run(p, sra.Options{})
}

// SRAWithOptions runs the greedy with explicit options (e.g. random site
// order, used when seeding genetic populations).
func SRAWithOptions(p *Problem, opts SRAOptions) *SRAResult {
	return sra.Run(p, opts)
}

// ClusterRun simulates the distributed system serving the problem's traffic
// under the given replication scheme and monitor policy (discrete-event,
// with optional pattern drift and failure injection). A nil initial scheme
// means primaries only.
func ClusterRun(p *Problem, initial *Scheme, cfg ClusterConfig) (*ClusterResult, error) {
	return cluster.Run(p, initial, cfg)
}

// DefaultGRAParams returns the paper's tuned GRA parameters (Np=50,
// Ng=80). The crossover rate µc=0.9, the mutation rate µm=0.01 and the
// elite re-injection period of 5 generations are fixed, not parameters.
func DefaultGRAParams() GRAParams { return gra.DefaultParams() }

// GRA runs the Genetic Replication Algorithm with SRA-seeded initialisation.
func GRA(p *Problem, params GRAParams) (*GRAResult, error) {
	return gra.Run(p, params)
}

// GRAWith is GRA under anytime controls: a run interrupted after
// generation g returns exactly what a Generations=g run would, with
// Stats.Stopped recording why it ended.
func GRAWith(p *Problem, params GRAParams, run RunOptions) (*GRAResult, error) {
	return gra.RunWith(p, params, run)
}

// GRAWithPopulation runs GRA from a caller-supplied initial population of
// placement matrices (as produced by Scheme.Bits or a previous GRAResult).
// An invalid chromosome is rejected by index before the run starts.
func GRAWithPopulation(p *Problem, params GRAParams, init []*PlacementBits) (*GRAResult, error) {
	return gra.ContinueWith(p, params, init, solver.Run{})
}

// GRAContinue is GRAWithPopulation under anytime controls.
func GRAContinue(p *Problem, params GRAParams, init []*PlacementBits, run RunOptions) (*GRAResult, error) {
	return gra.ContinueWith(p, params, init, run)
}

// DefaultAGRAParams returns the paper's micro-GA parameters (Ap=10,
// Ag=50). The crossover rate 0.8, the mutation rate 0.01 and the elite
// re-injection period of 5 generations are fixed, not parameters.
func DefaultAGRAParams() AGRAParams { return agra.DefaultParams() }

// Adapt runs the AGRA pipeline — per-object micro-GAs, transcription with
// estimator-guided capacity repair, and miniGenerations of mini-GRA polish
// (0 realises the best transcribed scheme directly).
func Adapt(in AdaptInput, params AGRAParams, mini GRAParams, miniGenerations int) (*AdaptResult, error) {
	return agra.Adapt(in, params, mini, miniGenerations)
}

// AdaptWith is Adapt under anytime controls: the micro-GAs share one
// evaluation budget and run one at a time under it, so a budgeted run is
// reproducible at any GOMAXPROCS; the mini-GRA inherits whatever deadline
// and budget remain, and an interrupted adaptation still returns a valid
// scheme built from the per-object results computed so far.
func AdaptWith(in AdaptInput, params AGRAParams, mini GRAParams, miniGenerations int, run RunOptions) (*AdaptResult, error) {
	return agra.AdaptWith(in, params, mini, miniGenerations, run)
}

// SparseGreedy solves p with the sharded greedy of internal/sparse over the
// candidate-pruned CSR form of p. Objects propose replica moves in parallel
// and a capacity ledger merges them; an interrupted run returns the valid
// scheme merged so far. A *Problem is already dense, so this door is for
// comparing algorithms: drpbench -sparse-bench builds the large instances.
func SparseGreedy(p *Problem, run RunOptions) (*Scheme, SolverStats, error) {
	mo, err := sparse.FromProblem(p)
	if err != nil {
		return nil, SolverStats{}, err
	}
	res, err := sparse.Solve(mo, sparse.SolveParams{}, run)
	if err != nil {
		return nil, SolverStats{}, err
	}
	scheme, err := res.Assignment.ToScheme(p)
	return scheme, res.Stats, err
}

// Baselines.

// NoReplication returns the primaries-only scheme.
func NoReplication(p *Problem) *Scheme { return baseline.NoReplication(p) }

// RandomPlacement fills sites with random valid replicas.
func RandomPlacement(p *Problem, seed uint64) *Scheme { return baseline.Random(p, seed) }

// ReadOnlyGreedy replicates by read benefit alone, ignoring update costs.
func ReadOnlyGreedy(p *Problem) *Scheme { return baseline.ReadOnlyGreedy(p) }

// Optimal exhaustively solves tiny instances (≤ maxFreeBits free placement
// bits) for ground truth.
func Optimal(p *Problem, maxFreeBits int) (*Scheme, error) {
	return baseline.Optimal(p, maxFreeBits)
}

// OptimalWith is the exhaustive search under anytime controls: when
// interrupted it returns the best scheme among the leaves enumerated so
// far, flagged by a non-completed stop reason.
func OptimalWith(p *Problem, maxFreeBits int, run RunOptions) (*OptimalResult, error) {
	return baseline.OptimalWith(p, maxFreeBits, run)
}

// HillClimb runs steepest-descent local search over single-replica
// add/remove moves from start (primaries-only if nil), stopping at a local
// optimum or after maxMoves accepted moves (0 = unbounded).
func HillClimb(p *Problem, start *Scheme, maxMoves int) *Scheme {
	return baseline.HillClimb(p, start, maxMoves).Scheme
}

// HillClimbWith is HillClimb under anytime controls, returning the full
// result with move and evaluation accounting.
func HillClimbWith(p *Problem, start *Scheme, maxMoves int, run RunOptions) *HillClimbResult {
	return baseline.HillClimbWith(p, start, maxMoves, run)
}

// Topology generators. All costs are drawn uniformly from [minCost, maxCost].

// CompleteTopology generates the paper's fully-connected network.
func CompleteTopology(n int, minCost, maxCost int64, seed uint64) *Topology {
	return netsim.CompleteUniform(n, minCost, maxCost, xrand.New(seed))
}

// RandomTopology generates a connected G(n,p)-style network.
func RandomTopology(n int, p float64, minCost, maxCost int64, seed uint64) *Topology {
	return netsim.Random(n, p, minCost, maxCost, xrand.New(seed))
}

// TreeTopology generates a random recursive tree.
func TreeTopology(n int, minCost, maxCost int64, seed uint64) *Topology {
	return netsim.Tree(n, minCost, maxCost, xrand.New(seed))
}
