package cluster

import (
	"bytes"
	"strings"

	"testing"

	"drp/internal/agra"
	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/sra"
	"drp/internal/workload"
)

func gen(t testing.TB, m, n int, u, c float64, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, u, c), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testConfig(policy Policy) Config {
	graParams := gra.DefaultParams()
	graParams.PopSize = 10
	graParams.Generations = 8
	agraParams := agra.DefaultParams()
	agraParams.PopSize = 6
	agraParams.Generations = 10
	return Config{
		Epochs:     3,
		Policy:     policy,
		GRAParams:  graParams,
		AGRAParams: agraParams,
		Seed:       7,
	}
}

// TestMeasuredNTCEqualsEq4 is the end-to-end validation of the cost model:
// serving exactly the measurement period's traffic through the simulator's
// mechanical policy (nearest-replica reads, primary-copy write broadcasts)
// must cost exactly what eq. 4 predicts.
func TestMeasuredNTCEqualsEq4(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := gen(t, 10, 15, 0.10, 0.20, seed)
		scheme := sra.Run(p, sra.Options{}).Scheme
		cfg := testConfig(PolicyNone)
		cfg.Epochs = 1
		res, err := Run(p, scheme, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := res.Epochs[0]
		if e.ServeNTC != e.ModelNTC {
			t.Fatalf("seed %d: measured NTC %d != eq.4 prediction %d", seed, e.ServeNTC, e.ModelNTC)
		}
		if e.ModelNTC != scheme.Cost() {
			t.Fatalf("seed %d: model NTC %d != scheme cost %d", seed, e.ModelNTC, scheme.Cost())
		}
		wantReads, wantWrites := int64(0), int64(0)
		for k := 0; k < p.Objects(); k++ {
			wantReads += p.TotalReads(k)
			wantWrites += p.TotalWrites(k)
		}
		if e.Reads != wantReads || e.Writes != wantWrites {
			t.Fatalf("seed %d: served %d/%d requests, want %d/%d", seed, e.Reads, e.Writes, wantReads, wantWrites)
		}
	}
}

func TestNilInitialSchemeMeansPrimariesOnly(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 2)
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 1
	res, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].ServeNTC != p.DPrime() {
		t.Fatalf("primaries-only serve cost %d != D' %d", res.Epochs[0].ServeNTC, p.DPrime())
	}
	if res.Epochs[0].Savings != 0 {
		t.Fatalf("primaries-only savings %v", res.Epochs[0].Savings)
	}
}

func TestPolicyNoneStableAcrossEpochs(t *testing.T) {
	p := gen(t, 8, 12, 0.05, 0.15, 3)
	scheme := sra.Run(p, sra.Options{}).Scheme
	res, err := Run(p, scheme, testConfig(PolicyNone))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("%d epochs", len(res.Epochs))
	}
	for _, e := range res.Epochs {
		if e.ServeNTC != res.Epochs[0].ServeNTC {
			t.Fatal("static patterns + static scheme should cost the same every epoch")
		}
		if e.Migrations != 0 {
			t.Fatal("PolicyNone migrated replicas")
		}
	}
	if !res.FinalScheme.Equal(scheme) {
		t.Fatal("PolicyNone changed the scheme")
	}
}

// TestNoDriftNoChange: a pattern that never moved is never reported to the
// adaptive monitor.
func TestNoDriftNoChange(t *testing.T) {
	p := gen(t, 8, 12, 0.05, 0.15, 3)
	scheme := sra.Run(p, sra.Options{}).Scheme
	res, err := Run(p, scheme, testConfig(PolicyAGRA))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Changed != 0 || e.Migrations != 0 {
			t.Fatalf("epoch %d: %d objects changed, %d migrations under static patterns", e.Epoch, e.Changed, e.Migrations)
		}
	}
}

// TestChangeFactorIsTwo pins the AGRA monitor's detection factor: a drift
// that grows half the objects' reads 2.5-fold reports each of them, one
// that grows them 1.5-fold reports none.
func TestChangeFactorIsTwo(t *testing.T) {
	p := gen(t, 8, 12, 0.05, 0.15, 3)
	scheme := sra.Run(p, sra.Options{}).Scheme
	for _, c := range []struct {
		ch   float64
		want int
	}{{1.5, 6}, {0.5, 0}} {
		cfg := testConfig(PolicyAGRA)
		cfg.Epochs = 2
		cfg.Drift = &workload.ChangeSpec{Ch: c.ch, ObjectShare: 0.5, ReadShare: 1}
		res, err := Run(p, scheme, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Epochs[1].Changed; got != c.want {
			t.Errorf("Ch=%v: %d objects reported, want %d", c.ch, got, c.want)
		}
	}
}

func TestDriftDegradesStaleScheme(t *testing.T) {
	p := gen(t, 12, 20, 0.05, 0.15, 4)
	scheme := sra.Run(p, sra.Options{}).Scheme
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 4
	cfg.Drift = &workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.0}
	res, err := Run(p, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Epochs[0], res.Epochs[len(res.Epochs)-1]
	if last.Savings >= first.Savings {
		t.Fatalf("update-heavy drift did not degrade the stale scheme: %.2f%% -> %.2f%%", first.Savings, last.Savings)
	}
}

func TestAGRAPolicyBeatsNoneUnderDrift(t *testing.T) {
	p := gen(t, 12, 20, 0.05, 0.15, 5)
	scheme := sra.Run(p, sra.Options{}).Scheme
	drift := &workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.5}

	run := func(policy Policy) *Result {
		cfg := testConfig(policy)
		cfg.Epochs = 4
		cfg.Drift = drift
		res, err := Run(p, scheme.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(PolicyNone)
	adaptive := run(PolicyAGRAMini)

	// Compare the last epoch's serving cost: the adaptive monitor must be
	// at least as good (drift is identical thanks to shared seeds).
	sLast := static.Epochs[len(static.Epochs)-1]
	aLast := adaptive.Epochs[len(adaptive.Epochs)-1]
	if aLast.ServeNTC > sLast.ServeNTC {
		t.Fatalf("adaptive serving cost %d worse than static %d", aLast.ServeNTC, sLast.ServeNTC)
	}
	if adaptive.Epochs[1].Changed == 0 {
		t.Fatal("monitor detected no pattern changes despite 30% drift at Ch=600%")
	}
	if adaptive.Epochs[1].Migrations == 0 {
		t.Fatal("adaptation did not migrate any replicas")
	}
}

func TestPolicySRAAdaptsEveryEpoch(t *testing.T) {
	p := gen(t, 10, 15, 0.02, 0.15, 6)
	res, err := Run(p, nil, testConfig(PolicySRA))
	if err != nil {
		t.Fatal(err)
	}
	// SRA runs before epoch 0, so the first epoch is already optimised.
	if res.Epochs[0].Savings <= 0 {
		t.Fatalf("SRA policy savings %.2f%% at epoch 0", res.Epochs[0].Savings)
	}
	if res.Epochs[0].Migrations == 0 {
		t.Fatal("SRA policy placed no replicas")
	}
}

func TestPolicyGRARuns(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 7)
	cfg := testConfig(PolicyGRA)
	cfg.Epochs = 2
	res, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Savings <= 0 {
		t.Fatalf("GRA policy savings %.2f%%", res.Epochs[0].Savings)
	}
	if err := res.FinalScheme.Validate(); err != nil {
		t.Fatal(err)
	}
}

// outage takes a site offline over the epochs [from, to).
type outage struct{ site, from, to int }

// downDuring is a Config.Down that reports the outages.
func downDuring(outages ...outage) func(site, epoch int) bool {
	return func(site, epoch int) bool {
		for _, o := range outages {
			if o.site == site && epoch >= o.from && epoch < o.to {
				return true
			}
		}
		return false
	}
}

func TestFailureRoutesAroundDownSite(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.30, 8)
	scheme := sra.Run(p, sra.Options{}).Scheme
	// Find a site that holds a non-primary replica, so reads reroute.
	victim := -1
	for i := 0; i < p.Sites() && victim < 0; i++ {
		for k := 0; k < p.Objects(); k++ {
			if scheme.Has(i, k) && p.Primary(k) != i {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		t.Skip("no non-primary replicas to fail")
	}
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 2
	cfg.Down = downDuring(outage{victim, 1, 2})
	res, err := Run(p, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy, failed := res.Epochs[0], res.Epochs[1]
	if failed.ServeNTC <= healthy.ServeNTC {
		t.Fatalf("failing site %d did not raise serving cost: %d <= %d", victim, failed.ServeNTC, healthy.ServeNTC)
	}
	// Reads of objects primared at the victim fail outright.
	primaried := false
	for k := 0; k < p.Objects(); k++ {
		if p.Primary(k) == victim {
			primaried = true
		}
	}
	if primaried && failed.FailedWrites == 0 {
		t.Fatal("writes to a down primary were not recorded as failed")
	}
}

func TestFailedPrimaryWithSoleReplicaFailsReads(t *testing.T) {
	p := gen(t, 6, 8, 0.05, 0.15, 9)
	// Primaries-only scheme: failing any primary site must fail that
	// object's reads entirely.
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 1
	cfg.Down = downDuring(outage{p.Primary(0), 0, 1})
	res, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].FailedReads == 0 {
		t.Fatal("no failed reads despite the only replica being down")
	}
}

func TestConfigValidation(t *testing.T) {
	p := gen(t, 5, 5, 0.05, 0.15, 10)
	bad := []Config{
		{Epochs: 0, Policy: PolicyNone},
		{Epochs: 1, Policy: Policy(0)},
	}
	for i, cfg := range bad {
		if _, err := Run(p, nil, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{
		PolicyNone: "none", PolicySRA: "sra", PolicyAGRA: "agra",
		PolicyAGRAMini: "agra+mini", PolicyGRA: "gra",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy produced empty string")
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 11)
	cfg := testConfig(PolicyAGRA)
	cfg.Drift = &workload.ChangeSpec{Ch: 3, ObjectShare: 0.2, ReadShare: 0.5}
	a, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		if a.Epochs[i].ServeNTC != b.Epochs[i].ServeNTC {
			t.Fatalf("epoch %d diverged between identical runs", i)
		}
	}
}

func TestResultTotals(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 12)
	res, err := Run(p, nil, testConfig(PolicySRA))
	if err != nil {
		t.Fatal(err)
	}
	var serve, all int64
	for _, e := range res.Epochs {
		serve += e.ServeNTC
		all += e.ServeNTC + e.MigrationNTC
	}
	if res.TotalServeNTC() != serve || res.TotalNTC() != all {
		t.Fatal("totals do not match epoch sums")
	}
}

func TestReadCostPercentiles(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.20, 13)
	scheme := sra.Run(p, sra.Options{}).Scheme
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 1
	res, err := Run(p, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Epochs[0]
	if e.ReadCostP50 > e.ReadCostP95 || e.ReadCostP95 > e.ReadCostMax {
		t.Fatalf("percentiles out of order: p50=%d p95=%d max=%d", e.ReadCostP50, e.ReadCostP95, e.ReadCostMax)
	}
	if float64(e.ReadCostP50) > e.MeanReadCost*3 && e.MeanReadCost > 0 {
		t.Fatalf("p50 %d implausibly above mean %.1f", e.ReadCostP50, e.MeanReadCost)
	}
	if e.ReadCostMax == 0 {
		t.Fatal("max read cost is zero despite remote reads")
	}
}

func TestCompareRanksPolicies(t *testing.T) {
	p := gen(t, 10, 15, 0.05, 0.15, 14)
	initial := sra.Run(p, sra.Options{}).Scheme
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 3
	cfg.Drift = &workload.ChangeSpec{Ch: 5, ObjectShare: 0.25, ReadShare: 0.6}
	cmp, err := Compare(p, initial, cfg, []Policy{PolicyNone, PolicyAGRAMini})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Reports) != 2 {
		t.Fatalf("%d reports", len(cmp.Reports))
	}
	frozen, adaptive := cmp.Reports[0], cmp.Reports[1]
	if adaptive.TotalServeNTC > frozen.TotalServeNTC {
		t.Fatalf("adaptive served for %d, frozen for %d", adaptive.TotalServeNTC, frozen.TotalServeNTC)
	}
	if frozen.AdaptTime != 0 {
		t.Fatal("frozen policy reported adaptation time")
	}
}

func TestCompareValidation(t *testing.T) {
	p := gen(t, 5, 5, 0.05, 0.15, 15)
	if _, err := Compare(p, nil, testConfig(PolicyNone), nil); err == nil {
		t.Fatal("empty policy list accepted")
	}
}

func TestComparisonRender(t *testing.T) {
	p := gen(t, 6, 8, 0.05, 0.15, 16)
	cfg := testConfig(PolicyNone)
	cfg.Epochs = 1
	cmp, err := Compare(p, nil, cfg, []Policy{PolicyNone, PolicySRA})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cmp.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "none") || !strings.Contains(out, "sra") {
		t.Fatalf("comparison table missing policies:\n%s", out)
	}
}
