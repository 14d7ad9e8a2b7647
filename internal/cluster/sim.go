package cluster

import (
	"fmt"
	"strconv"
	"time"

	"drp/internal/agra"
	"drp/internal/bitset"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/metrics"
	"drp/internal/plan"
	"drp/internal/solver"
	"drp/internal/sra"
	"drp/internal/workload"
)

// Run simulates cfg.Epochs measurement periods of the distributed system
// starting from the given problem and scheme.
func Run(p *core.Problem, initial *core.Scheme, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if initial == nil {
		initial = core.NewScheme(p)
	}
	if initial.Problem() != p {
		// Rebind defensively so Has/Cost agree with the problem we drive.
		rebound, err := core.SchemeFromBits(p, initial.Bits())
		if err != nil {
			return nil, fmt.Errorf("cluster: initial scheme incompatible: %w", err)
		}
		initial = rebound
	}

	sim := &sim{
		cfg:     cfg,
		problem: p,
		tuned:   p,
		scheme:  initial.Clone(),
		down:    make([]bool, p.Sites()),
	}
	sim.observer = metrics.BridgeObserver(cfg.Metrics, cfg.Events, nil)
	if cfg.Metrics != nil {
		sim.ins = newClusterInstruments(cfg.Metrics)
	}

	res := &Result{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats, err := sim.runEpoch(epoch)
		if err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, *stats)
		if cfg.OnEpoch != nil {
			if err := cfg.OnEpoch(epoch, sim.scheme.Clone(), stats); err != nil {
				return nil, fmt.Errorf("cluster: epoch hook: %w", err)
			}
		}
	}
	res.FinalScheme = sim.scheme
	return res, nil
}

// sim is the mutable simulation state carried from epoch to epoch.
type sim struct {
	cfg     Config
	problem *core.Problem // patterns for the CURRENT epoch
	// tuned holds the patterns the current scheme was last optimised
	// against; the monitor's change detector compares the current
	// patterns' per-object totals with its.
	tuned  *core.Problem
	scheme *core.Scheme
	down   []bool

	// population is the last GA population, carried across epochs for the
	// AGRA policies.
	population []*bitset.Set
	// readCosts histograms the current epoch's per-read transfer costs.
	readCosts *metrics.Histogram
	// observer bridges the monitor's solver progress into cfg.Metrics /
	// cfg.Events; nil when telemetry is off. ins caches the epoch
	// instruments of cfg.Metrics (nil likewise).
	observer solver.Observer
	ins      *clusterInstruments
}

// runEpoch drives one measurement period: drift, adaptation, traffic.
func (s *sim) runEpoch(epoch int) (*EpochStats, error) {
	stats := &EpochStats{Epoch: epoch}
	root := s.cfg.Tracer.Root("epoch")
	root.SetAttr("epoch", strconv.Itoa(epoch))
	defer root.Finish()

	// 1. Pattern drift at the start of every epoch after the first.
	if epoch > 0 && s.cfg.Drift != nil {
		next, _, err := workload.ApplyChange(s.problem, *s.cfg.Drift, s.cfg.Seed+uint64(epoch)*7919)
		if err != nil {
			return nil, err
		}
		s.problem = next
		rebound, err := core.SchemeFromBits(s.problem, s.scheme.Bits())
		if err != nil {
			return nil, fmt.Errorf("cluster: rebind after drift: %w", err)
		}
		s.scheme = rebound
	}

	// 2. The monitor adapts (it has just received the previous night's
	// statistics — in this simulator, the true current patterns).
	if epoch > 0 || s.cfg.Policy == PolicySRA || s.cfg.Policy == PolicyGRA {
		as := root.Child("epoch.adapt")
		if err := s.adapt(epoch, stats); err != nil {
			as.SetErr(err)
			as.Finish()
			return nil, err
		}
		as.SetAttr("changed", strconv.Itoa(stats.Changed))
		as.SetAttr("migrations", strconv.Itoa(stats.Migrations))
		if stats.AdaptDegraded {
			as.SetVerdict("degraded")
		}
		as.SetNTC(stats.MigrationNTC)
		as.Finish()
	}

	// 3. The sites down this epoch.
	for i := range s.down {
		s.down[i] = s.cfg.Down != nil && s.cfg.Down(i, epoch)
	}

	// 4. Generate and serve the epoch's traffic.
	s.readCosts = new(metrics.Histogram)
	sv := root.Child("epoch.serve")
	s.serveTraffic(stats)
	sv.SetAttr("reads", strconv.FormatInt(stats.Reads, 10))
	sv.SetAttr("writes", strconv.FormatInt(stats.Writes, 10))
	sv.SetNTC(stats.ServeNTC)
	sv.Finish()

	// 5. Bookkeeping: eq. 4 prediction, latency percentiles and savings.
	stats.ModelNTC = s.scheme.Cost()
	if stats.Reads > 0 {
		stats.MeanReadCost = s.readCosts.Sum() / float64(stats.Reads)
		stats.ReadCostP50 = int64(s.readCosts.Quantile(0.50))
		stats.ReadCostP95 = int64(s.readCosts.Quantile(0.95))
		stats.ReadCostMax = int64(s.readCosts.Max())
	}
	dPrime := s.problem.DPrime()
	if dPrime > 0 {
		stats.Savings = 100 * float64(dPrime-stats.ServeNTC-stats.MigrationNTC) / float64(dPrime)
	}
	s.record(stats)
	return stats, nil
}

// record folds one finished epoch into the configured telemetry sinks. The
// instruments observe only what the deterministic simulation already
// computed, so counter/histogram snapshots are reproducible run to run
// (AdaptTime is wall clock and goes to a *_seconds histogram, which the
// determinism filter excludes).
func (s *sim) record(stats *EpochStats) {
	if ins := s.ins; ins != nil {
		ins.epochs.Inc()
		if stats.AdaptDegraded {
			ins.degraded.Inc()
		}
		ins.reads.Add(stats.Reads)
		ins.writes.Add(stats.Writes)
		ins.failedReads.Add(stats.FailedReads)
		ins.failedWrites.Add(stats.FailedWrites)
		ins.serveRead.Add(stats.ReadNTC)
		ins.serveWrite.Add(stats.WriteNTC)
		ins.migrations.Add(int64(stats.Migrations))
		ins.migrationNTC.Add(stats.MigrationNTC)
		ins.changed.Add(int64(stats.Changed))
		ins.adaptEvals.Add(int64(stats.AdaptEvaluations))
		ins.adaptSeconds.Observe(stats.AdaptTime.Seconds())
	}
	if s.cfg.Events != nil {
		s.cfg.Events.Emit("cluster.epoch", map[string]any{
			"epoch":             stats.Epoch,
			"reads":             stats.Reads,
			"writes":            stats.Writes,
			"failed_reads":      stats.FailedReads,
			"failed_writes":     stats.FailedWrites,
			"serve_ntc":         stats.ServeNTC,
			"read_ntc":          stats.ReadNTC,
			"write_ntc":         stats.WriteNTC,
			"model_ntc":         stats.ModelNTC,
			"migration_ntc":     stats.MigrationNTC,
			"migrations":        stats.Migrations,
			"mean_read_cost":    stats.MeanReadCost,
			"read_cost_p95":     stats.ReadCostP95,
			"savings_pct":       stats.Savings,
			"changed":           stats.Changed,
			"adapt_ms":          float64(stats.AdaptTime) / float64(time.Millisecond),
			"adapt_evaluations": stats.AdaptEvaluations,
			"adapt_stopped":     stats.AdaptStopped.String(),
			"adapt_degraded":    stats.AdaptDegraded,
		})
	}
}

// adapt applies the configured monitor policy, migrating the scheme. When
// the epoch's deadline or evaluation budget fires mid-optimisation, the
// monitor degrades gracefully: the partial result is discarded, the current
// scheme keeps serving (so no migration cost is charged and eq. 4
// accounting is unaffected), the change detector's tuned patterns are left
// alone so the shift is re-flagged next epoch, and the miss is recorded in
// the epoch's stats.
func (s *sim) adapt(epoch int, stats *EpochStats) error {
	start := time.Now()
	run := solver.Run{Timeout: s.cfg.EpochTimeout, Budget: s.cfg.AdaptBudget, Observer: s.observer}
	old := s.scheme
	var next *core.Scheme
	var pop []*bitset.Set
	var st solver.Stats
	hasPop := false
	switch s.cfg.Policy {
	case PolicyNone:
		return nil

	case PolicySRA:
		res := sra.Run(s.problem, sra.Options{Run: run})
		next = res.Scheme
		st = res.Stats

	case PolicyGRA:
		params := s.cfg.GRAParams
		params.Seed = s.cfg.Seed + uint64(epoch)*131
		res, err := gra.RunWith(s.problem, params, run)
		if err != nil {
			return err
		}
		next = res.Scheme
		pop, hasPop = res.Population, true
		st = res.Stats

	case PolicyAGRA, PolicyAGRAMini:
		changed := agra.DetectChanges(s.tuned, s.problem, changeFactor)
		stats.Changed = len(changed)
		if len(changed) == 0 {
			stats.AdaptTime = time.Since(start)
			return nil
		}
		miniGens := 0
		if s.cfg.Policy == PolicyAGRAMini {
			miniGens = miniGenerations
		}
		params := s.cfg.AGRAParams
		params.Seed = s.cfg.Seed + uint64(epoch)*257
		mini := s.cfg.GRAParams
		mini.Seed = params.Seed + 1
		res, err := agra.AdaptWith(agra.Input{
			Problem:       s.problem,
			Current:       s.scheme,
			GRAPopulation: s.population,
			Changed:       changed,
		}, params, mini, miniGens, run)
		if err != nil {
			return err
		}
		next = res.Scheme
		pop, hasPop = res.Population, true
		st = res.Stats
	}
	stats.AdaptTime = time.Since(start)
	stats.AdaptEvaluations = st.Evaluations
	stats.AdaptStopped = st.Stopped
	if s.cfg.Metrics != nil || s.cfg.Events != nil {
		metrics.RecordStats(s.cfg.Metrics, s.cfg.Policy.String(), st, s.cfg.Events)
	}

	if st.Stopped != solver.StopCompleted {
		stats.AdaptDegraded = true
		return nil
	}

	s.scheme = next
	if hasPop {
		s.population = pop
	}
	// The migration is the plan diff the wire executes: each new replica
	// is copied from the nearest site that held the object under the old
	// scheme, and drops are free.
	steps, err := plan.Diff(plan.FromScheme(old), plan.FromScheme(next), s.problem)
	if err != nil {
		return err
	}
	for _, step := range steps {
		if step.Kind == plan.Copy {
			stats.Migrations++
		}
	}
	stats.MigrationNTC = plan.TotalCost(steps)
	s.tuned = s.problem
	return nil
}

// serveTraffic serves every read and write of the epoch's patterns, each
// charged what core prices it at with the epoch's failed sites down; a
// write's ship and broadcast both count as WriteNTC. The scheme and the set
// of failed sites are fixed within an epoch, so every request of one (site,
// object, kind) costs the same: each is priced once and charged by its
// count. Every statistic is a sum of integer costs (the float sum behind
// the mean is exact below 2^53), so this equals serving them one by one.
func (s *sim) serveTraffic(stats *EpochStats) {
	p, nearest := s.problem, core.NewNearestTable(s.scheme)
	serve := func(site, obj int, write bool, n int64) {
		if n <= 0 {
			return
		}
		c, ok := nearest.Price(site, obj, write, s.down)
		switch {
		case !ok && write:
			stats.FailedWrites += n
		case !ok:
			stats.FailedReads += n
		case write:
			stats.Writes += n
			stats.WriteNTC += n * c.Total()
		default:
			stats.Reads += n
			stats.ReadNTC += n * c.ReadNTC
			s.readCosts.ObserveN(float64(c.ReadNTC), uint64(n))
		}
		stats.ServeNTC += n * c.Total()
	}
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			serve(i, k, false, p.Reads(i, k))
			serve(i, k, true, p.Writes(i, k))
		}
	}
}
