package agra

import (
	"testing"

	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/solver"
	"drp/internal/sra"
	"drp/internal/workload"
	"drp/internal/xrand"
)

func gen(t testing.TB, m, n int, u, c float64, seed uint64) *core.Problem {
	t.Helper()
	p, err := workload.Generate(workload.NewSpec(m, n, u, c), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func microParams(seed uint64) Params {
	p := DefaultParams()
	p.Seed = seed
	return p
}

func miniParams(seed uint64) gra.Params {
	p := gra.DefaultParams()
	p.PopSize = 10
	p.Seed = seed
	return p
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.PopSize != 10 || p.Generations != 50 {
		t.Fatalf("defaults %+v do not match the paper", p)
	}
}

// microAlone runs object k's micro-GA from the primary-only scheme,
// without a GRA population, under a controller of its own, after the
// checks Adapt makes.
func microAlone(p *core.Problem, k int, params Params, rng *xrand.Source) (*ObjectResult, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if err := (Input{Problem: p, Current: core.NewScheme(p), Changed: []int{k}}).validate(); err != nil {
		return nil, err
	}
	res := newMicroGA(p, params, solver.Start("agra", solver.Run{})).runObject(k, nil, nil, rng)
	return &res, nil
}

func TestRunObjectKeepsPrimary(t *testing.T) {
	p := gen(t, 15, 10, 0.05, 0.15, 1)
	for k := 0; k < 3; k++ {
		res, err := microAlone(p, k, microParams(uint64(k)), xrand.New(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		foundPrimary := false
		for _, site := range res.Best {
			if site == p.Primary(k) {
				foundPrimary = true
			}
		}
		if !foundPrimary {
			t.Fatalf("object %d: best scheme %v lost its primary %d", k, res.Best, p.Primary(k))
		}
		for _, bits := range res.Population {
			if !bits.Test(p.Primary(k)) {
				t.Fatalf("object %d: population member lost primary bit", k)
			}
		}
	}
}

func TestRunObjectFitnessNonNegative(t *testing.T) {
	p := gen(t, 12, 8, 0.10, 0.15, 2)
	res, err := microAlone(p, 0, microParams(5), xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0 || res.Fitness > 1 {
		t.Fatalf("fitness %v outside [0,1]", res.Fitness)
	}
	if res.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestRunObjectUnconstrainedBeatsPrimaryOnly(t *testing.T) {
	// On a read-heavy object the unconstrained micro-GA must find a scheme
	// strictly better than primary-only.
	p := gen(t, 15, 10, 0.01, 0.15, 3)
	res, err := microAlone(p, 0, microParams(7), xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness <= 0 {
		t.Fatalf("read-heavy object fitness %v, want > 0", res.Fitness)
	}
	if len(res.Best) < 2 {
		t.Fatalf("read-heavy object replicated at %v only", res.Best)
	}
}

func TestRunObjectValidatesInput(t *testing.T) {
	p := gen(t, 5, 5, 0.05, 0.15, 4)
	if _, err := microAlone(p, -1, microParams(1), xrand.New(1)); err == nil {
		t.Fatal("negative object accepted")
	}
	if _, err := microAlone(p, 5, microParams(1), xrand.New(1)); err == nil {
		t.Fatal("out-of-range object accepted")
	}
	bad := microParams(1)
	bad.PopSize = 1
	if _, err := microAlone(p, 0, bad, xrand.New(1)); err == nil {
		t.Fatal("bad params accepted")
	}
}

// adaptFixture builds the standard adaptive scenario: a static scheme
// computed for the old patterns, then a pattern change.
func adaptFixture(t *testing.T, changeSpec workload.ChangeSpec, seed uint64) (old, new *core.Problem, current *core.Scheme, changed []int) {
	t.Helper()
	old = gen(t, 12, 20, 0.05, 0.15, seed)
	current = sra.Run(old, sra.Options{}).Scheme
	newP, changes, err := workload.ApplyChange(old, changeSpec, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range changes {
		changed = append(changed, c.Object)
	}
	return old, newP, current, changed
}

func TestAdaptProducesValidScheme(t *testing.T) {
	_, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.2, ReadShare: 0.5}, 10)
	// The current scheme must re-validate against the new problem (same
	// sizes and capacities).
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Adapt(Input{Problem: newP, Current: cur, Changed: changed}, microParams(3), miniParams(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("adapted scheme invalid: %v", err)
	}
	if len(res.Objects) != len(changed) {
		t.Fatalf("adapted %d objects, want %d", len(res.Objects), len(changed))
	}
	if res.Cost != res.Scheme.Cost() {
		t.Fatal("reported cost mismatch")
	}
}

func TestAdaptImprovesOnStaleScheme(t *testing.T) {
	// A large update surge makes the stale static scheme poor; AGRA must
	// improve it.
	_, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.3, ReadShare: 0.0}, 20)
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	staleCost := cur.Cost()
	res, err := Adapt(Input{Problem: newP, Current: cur, Changed: changed}, microParams(5), miniParams(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > staleCost {
		t.Fatalf("AGRA cost %d worse than stale scheme %d", res.Cost, staleCost)
	}
}

func TestAdaptWithMiniGRANotWorseThanTranscription(t *testing.T) {
	_, newP, current, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.2, ReadShare: 0.8}, 30)
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Problem: newP, Current: cur, Changed: changed}
	standalone, err := Adapt(in, microParams(7), miniParams(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Adapt(in, microParams(7), miniParams(7), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Mini-GRA is elitist over the same transcribed population, so it can
	// only improve (same seeds → same transcription).
	if polished.Cost > standalone.Cost {
		t.Fatalf("mini-GRA cost %d worse than standalone %d", polished.Cost, standalone.Cost)
	}
	if polished.MiniElapsed <= 0 || standalone.MicroElapsed <= 0 {
		t.Fatal("timing accounting missing")
	}
}

func TestAdaptUsesGRAPopulation(t *testing.T) {
	old, newP, _, changed := adaptFixture(t, workload.ChangeSpec{Ch: 6, ObjectShare: 0.15, ReadShare: 0.5}, 40)
	graParams := gra.DefaultParams()
	graParams.PopSize = 10
	graParams.Generations = 5
	graParams.Seed = 9
	graRes, err := gra.Run(old, graParams)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := core.SchemeFromBits(newP, graRes.Scheme.Bits())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Adapt(Input{
		Problem:       newP,
		Current:       cur,
		GRAPopulation: graRes.Population,
		Changed:       changed,
	}, microParams(11), miniParams(11), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Population) == 0 {
		t.Fatal("no population retained for the next round")
	}
}

func TestAdaptNoChangesIsNoop(t *testing.T) {
	_, newP, current, _ := adaptFixture(t, workload.ChangeSpec{Ch: 0, ObjectShare: 0, ReadShare: 0.5}, 50)
	cur, err := core.SchemeFromBits(newP, current.Bits())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Adapt(Input{Problem: newP, Current: cur, Changed: nil}, microParams(13), miniParams(13), 0)
	if err != nil {
		t.Fatal(err)
	}
	// With nothing to adapt, the current scheme (the transcription elite)
	// must be among the candidates, so the result cannot be worse.
	if res.Cost > cur.Cost() {
		t.Fatalf("no-op adaptation cost %d worse than current %d", res.Cost, cur.Cost())
	}
}

func TestAdaptValidation(t *testing.T) {
	p := gen(t, 5, 5, 0.05, 0.15, 60)
	cur := core.NewScheme(p)
	if _, err := Adapt(Input{Problem: nil, Current: cur}, microParams(1), miniParams(1), 0); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := Adapt(Input{Problem: p, Current: nil}, microParams(1), miniParams(1), 0); err == nil {
		t.Fatal("nil current scheme accepted")
	}
	badMini := miniParams(1)
	badMini.PopSize = 1
	if _, err := Adapt(Input{Problem: p, Current: cur}, microParams(1), badMini, 0); err == nil {
		t.Fatal("bad mini params accepted")
	}
}

func TestTranscriptionRepairRespectsCapacity(t *testing.T) {
	// Tight capacities force the E-repair path: every transcribed
	// chromosome must still satisfy the storage constraint.
	p := gen(t, 10, 20, 0.02, 0.06, 70)
	cur := sra.Run(p, sra.Options{}).Scheme
	changed := []int{0, 1, 2, 3, 4}
	res, err := Adapt(Input{Problem: p, Current: cur, Changed: changed}, microParams(17), miniParams(17), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, bits := range res.Population {
		if _, err := core.SchemeFromBits(p, bits); err != nil {
			t.Fatalf("transcribed chromosome %d invalid: %v", i, err)
		}
	}
}

func TestDetectChanges(t *testing.T) {
	before := gen(t, 10, 20, 0.05, 0.15, 80)
	after, changes, err := workload.ApplyChange(before, workload.ChangeSpec{Ch: 6, ObjectShare: 0.25, ReadShare: 0.5}, 81)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]bool)
	for _, c := range changes {
		want[c.Object] = true
	}
	got := DetectChanges(before, after, 2.0)
	gotSet := make(map[int]bool)
	for _, k := range got {
		gotSet[k] = true
	}
	// Everything the generator changed by 600% must be detected at a 2x
	// threshold, and nothing untouched may appear.
	for k := range want {
		if !gotSet[k] {
			t.Errorf("changed object %d not detected", k)
		}
	}
	for k := range gotSet {
		if !want[k] {
			t.Errorf("untouched object %d falsely detected", k)
		}
	}
}

func TestDetectChangesNoChange(t *testing.T) {
	p := gen(t, 8, 10, 0.05, 0.15, 82)
	for _, factor := range []float64{0.5, 1, 2} {
		if got := DetectChanges(p, p, factor); len(got) != 0 {
			t.Fatalf("factor %v: self-comparison detected %v", factor, got)
		}
	}
}

func TestDetectChangesZeroCrossing(t *testing.T) {
	p := gen(t, 4, 3, 0.0, 0.5, 83)
	reads := p.ReadMatrix()
	writes := p.WriteMatrix()
	writes[0][1] = 5 // previously zero writes
	next, err := p.WithPatterns(reads, writes)
	if err != nil {
		t.Fatal(err)
	}
	got := DetectChanges(p, next, 10.0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("zero-crossing detection = %v, want [1]", got)
	}
}
