package cluster

// Coverage for the EpochTimeout degraded path when faults are injected at
// the same time: a monitor that blows its deadline while sites are down
// must keep serving the current scheme, record the degraded epochs (stats
// and drp_cluster_degraded_epochs_total both), and account the requests
// lost to the outage — degradation of the optimiser and degradation of the
// serving plane are independent and must not mask each other.

import (
	"testing"

	"drp/internal/metrics"
	"drp/internal/sra"
	"drp/internal/workload"
)

func TestEpochTimeoutDegradedPathUnderInjectedFaults(t *testing.T) {
	p := gen(t, 10, 16, 0.08, 0.2, 17)
	initial := sra.Run(p, sra.Options{}).Scheme
	cfg := testConfig(PolicyGRA)
	cfg.Epochs = 4
	cfg.Drift = &workload.ChangeSpec{Ch: 5, ObjectShare: 0.3, ReadShare: 0.5}
	cfg.EpochTimeout = 1 // one nanosecond: every re-optimisation misses
	cfg.Down = downDuring(outage{1, 1, 3}, outage{4, 2, 4})
	reg := metrics.NewRegistry()
	cfg.Metrics = reg

	res, err := Run(p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// PolicyGRA re-optimises every epoch, so every epoch after the first
	// degrades under the 1ns deadline (epoch 0 adapts too under GRA).
	if res.DegradedEpochs() == 0 {
		t.Fatal("no epoch recorded a degraded adaptation; the path was not exercised")
	}
	var failed int64
	for i, e := range res.Epochs {
		if e.AdaptDegraded {
			if e.Migrations != 0 {
				t.Errorf("epoch %d migrated %d replicas on a degraded adaptation", i, e.Migrations)
			}
		}
		failed += e.FailedReads + e.FailedWrites
	}
	if failed == 0 {
		t.Fatal("injected outages lost no requests; the fault path was not exercised")
	}

	// Adaptations were all discarded, so the serving scheme never changed.
	if !res.FinalScheme.Bits().Equal(initial.Bits()) {
		t.Error("degraded monitor changed the serving scheme under faults")
	}

	// The instruments must agree with the stats the caller already has.
	counter := func(name string, labels metrics.Labels) int64 {
		return reg.Counter(name, "", labels).Value()
	}
	if got := counter("drp_cluster_degraded_epochs_total", nil); got != int64(res.DegradedEpochs()) {
		t.Errorf("degraded epochs counter = %d, stats say %d", got, res.DegradedEpochs())
	}
	gotFailed := counter("drp_cluster_failed_requests_total", metrics.Labels{"op": "read"}) +
		counter("drp_cluster_failed_requests_total", metrics.Labels{"op": "write"})
	if gotFailed != failed {
		t.Errorf("failed requests counter = %d, stats say %d", gotFailed, failed)
	}
	if got := counter("drp_cluster_epochs_total", nil); got != int64(len(res.Epochs)) {
		t.Errorf("epochs counter = %d, want %d", got, len(res.Epochs))
	}
}

// TestDegradedEpochsUnaffectedByFaultInjection pins that the two
// degradation axes are orthogonal: the same deadline-starved run with and
// without injected site failures degrades the identical set of epochs (the
// optimiser's deadline behaviour must not depend on the serving plane).
func TestDegradedEpochsUnaffectedByFaultInjection(t *testing.T) {
	p := gen(t, 10, 16, 0.08, 0.2, 17)
	initial := sra.Run(p, sra.Options{}).Scheme
	base := testConfig(PolicyGRA)
	base.Epochs = 3
	base.EpochTimeout = 1

	run := func(down func(site, epoch int) bool) []bool {
		cfg := base
		cfg.Down = down
		res, err := Run(p, initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(res.Epochs))
		for i, e := range res.Epochs {
			out[i] = e.AdaptDegraded
		}
		return out
	}

	calm := run(nil)
	faulted := run(downDuring(outage{2, 0, 3}))
	if len(calm) != len(faulted) {
		t.Fatalf("epoch counts differ: %d vs %d", len(calm), len(faulted))
	}
	for i := range calm {
		if calm[i] != faulted[i] {
			t.Errorf("epoch %d: degraded=%v without faults but %v with faults", i, calm[i], faulted[i])
		}
	}
}
