package cluster

import (
	"testing"

	"drp/internal/core"
	"drp/internal/metrics"
	"drp/internal/sra"
	"drp/internal/workload"
)

// TestServeByCountMatchesPerRequest holds the simulator's serving to a
// reference that prices every request of the epoch's patterns one at a
// time and observes each read's cost on its own. On a drifting run with
// a primary site and a replica holder down in turn, every epoch's
// request counts, failed counts, NTC split, mean read cost and read-cost
// percentiles must equal the reference's.
//
// It kills a serve that observes a read cost once per (site, object)
// instead of once per read, and one that drops the failed count.
func TestServeByCountMatchesPerRequest(t *testing.T) {
	p := gen(t, 10, 15, 0.10, 0.20, 5)
	initial := sra.Run(p, sra.Options{}).Scheme
	holder := -1
	for i := 0; i < p.Sites() && holder < 0; i++ {
		for k := 0; k < p.Objects(); k++ {
			if initial.Has(i, k) && p.Primary(k) != i && i != p.Primary(0) {
				holder = i
				break
			}
		}
	}
	if holder < 0 {
		t.Fatal("the SRA scheme holds no non-primary replica")
	}
	cfg := testConfig(PolicyAGRA)
	cfg.Epochs = 4
	cfg.Drift = &workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5}
	cfg.Down = downDuring(outage{p.Primary(0), 1, 3}, outage{holder, 2, 4})
	var failedReads, failedWrites int64
	cfg.OnEpoch = func(epoch int, scheme *core.Scheme, stats *EpochStats) error {
		down := make([]bool, p.Sites())
		for i := range down {
			down[i] = cfg.Down(i, epoch)
		}
		if got, want := served(*stats), serveEach(scheme, down); got != want {
			t.Errorf("epoch %d served\n%+v\nthe per-request reference\n%+v", epoch, got, want)
		}
		failedReads += stats.FailedReads
		failedWrites += stats.FailedWrites
		return nil
	}
	if _, err := Run(p, initial, cfg); err != nil {
		t.Fatal(err)
	}
	if failedReads == 0 || failedWrites == 0 {
		t.Fatalf("%d failed reads and %d failed writes: the outages fail no request of some kind", failedReads, failedWrites)
	}
}

// served projects the statistics serving an epoch's traffic determines.
func served(st EpochStats) EpochStats {
	return EpochStats{
		Reads: st.Reads, Writes: st.Writes, FailedReads: st.FailedReads, FailedWrites: st.FailedWrites,
		ServeNTC: st.ServeNTC, ReadNTC: st.ReadNTC, WriteNTC: st.WriteNTC,
		MeanReadCost: st.MeanReadCost, ReadCostP50: st.ReadCostP50, ReadCostP95: st.ReadCostP95, ReadCostMax: st.ReadCostMax,
	}
}

// serveEach serves every request of the scheme's patterns one at a time
// with the sites in down failed.
func serveEach(s *core.Scheme, down []bool) EpochStats {
	p, nearest := s.Problem(), core.NewNearestTable(s)
	var st EpochStats
	var costs metrics.Histogram
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			for r := p.Reads(i, k); r > 0; r-- {
				c, ok := nearest.Price(i, k, false, down)
				if !ok {
					st.FailedReads++
					continue
				}
				st.Reads++
				st.ReadNTC += c.ReadNTC
				st.ServeNTC += c.Total()
				costs.Observe(float64(c.ReadNTC))
			}
			for w := p.Writes(i, k); w > 0; w-- {
				c, ok := nearest.Price(i, k, true, down)
				if !ok {
					st.FailedWrites++
					continue
				}
				st.Writes++
				st.WriteNTC += c.Total()
				st.ServeNTC += c.Total()
			}
		}
	}
	if st.Reads > 0 {
		st.MeanReadCost = costs.Sum() / float64(st.Reads)
		st.ReadCostP50 = int64(costs.Quantile(0.50))
		st.ReadCostP95 = int64(costs.Quantile(0.95))
		st.ReadCostMax = int64(costs.Max())
	}
	return st
}
