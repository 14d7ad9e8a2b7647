package workload

import (
	"math"
	"strings"
	"testing"

	"drp/internal/core"
)

func changeBase(t *testing.T) *core.Problem {
	t.Helper()
	p, err := Generate(NewSpec(20, 40, 0.05, 0.15), 101)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyChangeCounts(t *testing.T) {
	p := changeBase(t)
	next, changes, err := ApplyChange(p, ChangeSpec{Ch: 6.0, ObjectShare: 0.3, ReadShare: 0.8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 12 { // 30% of 40
		t.Fatalf("%d changes, want 12", len(changes))
	}
	ups, downs := 0, 0
	for _, c := range changes {
		switch c.Direction {
		case readsUp:
			ups++
		case writesUp:
			downs++
		default:
			t.Fatalf("bad direction %v", c.Direction)
		}
	}
	if ups != 10 || downs != 2 { // 80% / 20% of 12
		t.Fatalf("%d reads up, %d writes up, want 10/2", ups, downs)
	}
	if next == p {
		t.Fatal("ApplyChange returned the original problem")
	}
}

func TestApplyChangeMagnitude(t *testing.T) {
	p := changeBase(t)
	next, changes, err := ApplyChange(p, ChangeSpec{Ch: 6.0, ObjectShare: 0.25, ReadShare: 1.0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range changes {
		if c.Direction != readsUp {
			t.Fatal("ReadShare 1.0 yielded a write change")
		}
		before := p.TotalReads(c.Object)
		after := next.TotalReads(c.Object)
		if after-before != c.Added {
			t.Fatalf("object %d: reads grew by %d, Added says %d", c.Object, after-before, c.Added)
		}
		want := int64(6*float64(before) + 0.5)
		if c.Added != want {
			t.Fatalf("object %d: added %d, want 600%% = %d", c.Object, c.Added, want)
		}
		if next.TotalWrites(c.Object) != p.TotalWrites(c.Object) {
			t.Fatal("reads-up change altered writes")
		}
	}
}

func TestApplyChangeWritesUp(t *testing.T) {
	p := changeBase(t)
	next, changes, err := ApplyChange(p, ChangeSpec{Ch: 4.0, ObjectShare: 0.2, ReadShare: 0.0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range changes {
		if c.Direction != writesUp {
			t.Fatal("ReadShare 0.0 yielded a read change")
		}
		grown := next.TotalWrites(c.Object) - p.TotalWrites(c.Object)
		if grown != c.Added {
			t.Fatalf("object %d: writes grew by %d, Added says %d", c.Object, grown, c.Added)
		}
		if next.TotalReads(c.Object) != p.TotalReads(c.Object) {
			t.Fatal("writes-up change altered reads")
		}
	}
}

func TestApplyChangeUntouchedObjectsUnchanged(t *testing.T) {
	p := changeBase(t)
	next, changes, err := ApplyChange(p, ChangeSpec{Ch: 6.0, ObjectShare: 0.1, ReadShare: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	changed := make(map[int]bool)
	for _, c := range changes {
		changed[c.Object] = true
	}
	for k := 0; k < p.Objects(); k++ {
		if changed[k] {
			continue
		}
		if next.TotalReads(k) != p.TotalReads(k) || next.TotalWrites(k) != p.TotalWrites(k) {
			t.Fatalf("untouched object %d changed", k)
		}
	}
}

func TestApplyChangeDeterministic(t *testing.T) {
	p := changeBase(t)
	spec := ChangeSpec{Ch: 6.0, ObjectShare: 0.3, ReadShare: 0.8}
	a, _, err := ApplyChange(p, spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ApplyChange(p, spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.DPrime() != b.DPrime() {
		t.Fatal("same seed produced different changes")
	}
}

func TestApplyChangeSortsByObject(t *testing.T) {
	p := changeBase(t)
	_, changes, err := ApplyChange(p, ChangeSpec{Ch: 2.0, ObjectShare: 0.5, ReadShare: 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(changes); i++ {
		if changes[i].Object <= changes[i-1].Object {
			t.Fatal("changes not sorted by object id")
		}
	}
}

// TestApplyChangeValidation: a share outside [0,1], NaN included, and a
// change ratio that is negative, not finite or that would add more than
// maxDraws requests are each rejected by field name. The NaN and 1e300
// rows used to panic or return changes that added nothing.
func TestApplyChangeValidation(t *testing.T) {
	p := changeBase(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		spec  ChangeSpec
		field string
	}{
		{ChangeSpec{Ch: -1, ObjectShare: 0.1, ReadShare: 0.5}, "Ch"},
		{ChangeSpec{Ch: nan, ObjectShare: 0.1, ReadShare: 0.5}, "Ch"},
		{ChangeSpec{Ch: inf, ObjectShare: 0.1, ReadShare: 0.5}, "Ch"},
		{ChangeSpec{Ch: 1e300, ObjectShare: 0.1, ReadShare: 0.5}, "Ch"},
		{ChangeSpec{Ch: 1, ObjectShare: -0.1, ReadShare: 0.5}, "ObjectShare"},
		{ChangeSpec{Ch: 1, ObjectShare: 1.5, ReadShare: 0.5}, "ObjectShare"},
		{ChangeSpec{Ch: 1, ObjectShare: nan, ReadShare: 0.5}, "ObjectShare"},
		{ChangeSpec{Ch: 1, ObjectShare: 0.1, ReadShare: 2}, "ReadShare"},
		{ChangeSpec{Ch: 1, ObjectShare: 0.1, ReadShare: nan}, "ReadShare"},
		{ChangeSpec{Ch: 1, ObjectShare: 0.1, ReadShare: -inf}, "ReadShare"},
	} {
		next, changes, err := ApplyChange(p, c.spec, 1)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %v, want one naming %s (%d changes, next %v)", c.spec, err, c.field, len(changes), next != nil)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if readsUp.String() != "reads-up" || writesUp.String() != "writes-up" {
		t.Fatal("direction strings wrong")
	}
	if Direction(9).String() == "" {
		t.Fatal("unknown direction produced empty string")
	}
}
