// Package cluster simulates the distributed system the replication
// algorithms serve: sites issuing reads against their nearest replica and
// writes through primary copies, a monitor site collecting per-object
// statistics each epoch and re-optimising the replication scheme, object
// migration with its own transfer costs, and site-failure injection.
//
// The simulator's transfer-cost accounting follows the paper's policy
// mechanically — each read is served from the nearest replica, each write
// ships to the primary which broadcasts to the other replicas — so with the
// full traffic of a measurement period and a static scheme, the measured
// NTC equals the analytic D of eq. 4 exactly. That equivalence is tested,
// closing the loop between the cost model the optimisers minimise and the
// system behaviour a deployment would observe.
package cluster

import (
	"fmt"
	"time"

	"drp/internal/agra"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/metrics"
	"drp/internal/solver"
	"drp/internal/spans"
	"drp/internal/workload"
)

// Policy selects how the monitor reacts at epoch boundaries.
type Policy int

// Monitor policies.
const (
	// PolicyNone never adapts: the initial scheme serves every epoch.
	PolicyNone Policy = iota + 1
	// PolicySRA recomputes the scheme from scratch with the greedy.
	PolicySRA
	// PolicyAGRA adapts only changed objects (micro-GAs + transcription).
	PolicyAGRA
	// PolicyAGRAMini is PolicyAGRA followed by the mini-GRA polish.
	PolicyAGRAMini
	// PolicyGRA re-runs the full genetic algorithm every epoch.
	PolicyGRA
)

func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicySRA:
		return "sra"
	case PolicyAGRA:
		return "agra"
	case PolicyAGRAMini:
		return "agra+mini"
	case PolicyGRA:
		return "gra"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

const (
	// changeFactor is the pattern-change detection factor of the AGRA
	// policies: an object is reported to the adaptive monitor when its
	// observed read or write total grew or shrank by at least this factor
	// since the scheme was last tuned for it (agra.DetectChanges).
	changeFactor = 2.0
	// miniGenerations is the paper's mini-GRA polish after an AGRA
	// re-optimisation, in generations.
	miniGenerations = 5
)

// Config drives a cluster simulation.
type Config struct {
	// Epochs is the number of measurement periods to simulate.
	Epochs int
	// Policy selects the monitor's adaptation strategy.
	Policy Policy
	// Drift, if non-nil, perturbs the read/write patterns at the start of
	// every epoch after the first (Section 6.3 style).
	Drift *workload.ChangeSpec
	// Down, when non-nil, reports whether a site is offline in an epoch.
	// drpcluster feeds it from a fault plan's own crash rule (fault.Plan.Down
	// with the epoch as the step).
	Down func(site, epoch int) bool
	// GRA and AGRA budgets for the adapting policies.
	GRAParams  gra.Params
	AGRAParams agra.Params
	// EpochTimeout caps each epoch's re-optimisation wall-clock: a monitor
	// that blows it keeps serving the current scheme (no migration, no
	// re-tuning of the change detector) and the miss is recorded in
	// EpochStats. 0 means unbounded.
	EpochTimeout time.Duration
	// AdaptBudget caps each epoch's re-optimisation at this many cost-model
	// evaluations, with the same degradation behaviour. 0 means unbounded.
	AdaptBudget int
	// Metrics, when non-nil, receives the epoch instrument families
	// (drp_cluster_*) and per-iteration solver progress from the monitor's
	// re-optimisations (drp_solver_*). Instrumentation never feeds back
	// into the simulation, so instrumented runs are bit-identical to bare
	// ones.
	Metrics *metrics.Registry
	// Events, when non-nil, receives one structured "cluster.epoch" event
	// per epoch plus the monitor's solver progress stream as JSONL.
	Events *metrics.EventLog
	// Tracer, when non-nil, records one epoch root span per measurement
	// period with adapt and serve children; the adapt child carries the
	// epoch's migration NTC and the serve child its serve NTC, so a span
	// file sums to the run's exact accounted transfer cost.
	Tracer *spans.Tracer
	// Seed makes runs reproducible.
	Seed uint64
	// OnEpoch, when non-nil, runs after every finished epoch with the
	// scheme then in force and the epoch's stats. Durable monitors persist
	// their placement decision here (see drp/internal/store.Journal); an
	// error aborts the run. The scheme is a clone — the hook may retain it.
	OnEpoch func(epoch int, scheme *core.Scheme, stats *EpochStats) error
}

func (cfg Config) validate() error {
	switch {
	case cfg.Epochs < 1:
		return fmt.Errorf("cluster: need at least one epoch, got %d", cfg.Epochs)
	case cfg.Policy < PolicyNone || cfg.Policy > PolicyGRA:
		return fmt.Errorf("cluster: unknown policy %d", int(cfg.Policy))
	case cfg.EpochTimeout < 0:
		return fmt.Errorf("cluster: negative epoch timeout %v", cfg.EpochTimeout)
	case cfg.AdaptBudget < 0:
		return fmt.Errorf("cluster: negative adapt budget %d", cfg.AdaptBudget)
	}
	return nil
}

// EpochStats reports one epoch of simulated traffic.
type EpochStats struct {
	Epoch int

	// Reads/Writes are the numbers of requests served.
	Reads, Writes int64
	// FailedReads/FailedWrites could not be served because every replica
	// (or the primary) was offline.
	FailedReads, FailedWrites int64

	// ServeNTC is the measured transfer cost of serving requests; ModelNTC
	// is eq. 4's prediction for the same patterns and scheme (they are
	// equal when no site failed during the epoch). ReadNTC/WriteNTC split
	// ServeNTC by request kind (ReadNTC + WriteNTC == ServeNTC always).
	ServeNTC int64
	ReadNTC  int64
	WriteNTC int64
	ModelNTC int64
	// MigrationNTC is the cost of shipping objects for scheme changes
	// applied at the start of the epoch, and Migrations the replica count
	// that moved.
	MigrationNTC int64
	Migrations   int

	// MeanReadCost is the average per-read transfer cost, the paper's
	// proxy for response time; ReadCostP50/P95/Max are distribution
	// percentiles of the same quantity.
	MeanReadCost float64
	ReadCostP50  int64
	ReadCostP95  int64
	ReadCostMax  int64
	// Savings is the % NTC saved versus serving the epoch's patterns with
	// primaries only (migration cost included).
	Savings float64

	// Changed is the number of objects the monitor flagged as shifted;
	// AdaptTime is how long the monitor's re-optimisation took.
	Changed   int
	AdaptTime time.Duration
	// AdaptEvaluations counts the re-optimisation's cost-model evaluations
	// and AdaptStopped why it ended. AdaptDegraded is set when the epoch
	// deadline or budget fired: the freshly computed scheme is discarded
	// and the epoch is served — and its NTC accounted per eq. 4 — under
	// the unchanged current scheme.
	AdaptEvaluations int
	AdaptStopped     solver.StopReason
	AdaptDegraded    bool
}

// Result is a full simulation run.
type Result struct {
	Epochs []EpochStats
	// FinalScheme is the scheme in force after the last epoch.
	FinalScheme *core.Scheme
}

// TotalServeNTC sums the serving cost over all epochs.
func (r *Result) TotalServeNTC() int64 {
	var total int64
	for _, e := range r.Epochs {
		total += e.ServeNTC
	}
	return total
}

// TotalNTC sums serving and migration cost over all epochs.
func (r *Result) TotalNTC() int64 {
	total := r.TotalServeNTC()
	for _, e := range r.Epochs {
		total += e.MigrationNTC
	}
	return total
}

// TotalMigrations sums the replica moves over all epochs.
func (r *Result) TotalMigrations() int {
	total := 0
	for _, e := range r.Epochs {
		total += e.Migrations
	}
	return total
}

// TotalMigrationNTC sums the transfer cost of those moves.
func (r *Result) TotalMigrationNTC() int64 {
	var total int64
	for _, e := range r.Epochs {
		total += e.MigrationNTC
	}
	return total
}

// DegradedEpochs counts the epochs whose re-optimisation missed its
// deadline or budget and kept serving the previous scheme.
func (r *Result) DegradedEpochs() int {
	total := 0
	for _, e := range r.Epochs {
		if e.AdaptDegraded {
			total++
		}
	}
	return total
}
