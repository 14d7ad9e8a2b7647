package membership

import (
	"reflect"
	"testing"
)

func TestTrackerEpochsAndEvents(t *testing.T) {
	tr, err := NewTracker(5, []int{2, 0, 1})
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	if v := tr.View(); v.Epoch != 0 || !reflect.DeepEqual(v.Members, []int{0, 1, 2}) || tr.Universe() != 5 {
		t.Fatalf("founding view = %v over universe %d", v, tr.Universe())
	}
	var seen []View
	tr.Subscribe(func(v View) { seen = append(seen, v) })

	v, err := tr.JoinSite(4)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if v.Epoch != 1 || !v.Has(4) {
		t.Fatalf("join view = %v", v)
	}
	v, err = tr.LeaveSite(0)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if v.Epoch != 2 || v.Has(0) || !reflect.DeepEqual(v.Members, []int{1, 2, 4}) {
		t.Fatalf("leave view = %v", v)
	}
	if len(seen) != 2 || seen[0].Epoch != 1 || seen[1].Epoch != 2 || !seen[1].Equal(tr.View()) {
		t.Fatalf("subscriber saw %v", seen)
	}
}

// TestSubscriberOrder: every subscriber sees every view exactly once, in
// subscription order within an event and epoch order across events, and a
// callback may read the tracker.
func TestSubscriberOrder(t *testing.T) {
	tr, err := NewTracker(6, []int{0})
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	type call struct{ sub, epoch int }
	var calls []call
	for sub := 0; sub < 2; sub++ {
		sub := sub
		tr.Subscribe(func(v View) {
			if !v.Equal(tr.View()) {
				t.Errorf("subscriber %d handed %v while the tracker holds %v", sub, v, tr.View())
			}
			calls = append(calls, call{sub, v.Epoch})
		})
	}
	for _, site := range []int{3, 5} {
		if _, err := tr.JoinSite(site); err != nil {
			t.Fatalf("join %d: %v", site, err)
		}
	}
	if _, err := tr.LeaveSite(3); err != nil {
		t.Fatalf("leave: %v", err)
	}
	want := []call{{0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("callbacks ran as %v, want %v", calls, want)
	}
}

func TestTrackerRejections(t *testing.T) {
	if _, err := NewTracker(6, nil); err == nil {
		t.Fatal("empty initial membership accepted")
	}
	if _, err := NewTracker(6, []int{0, 0, 1}); err == nil {
		t.Fatal("duplicate initial member accepted")
	}
	if _, err := NewTracker(6, []int{0, 6}); err == nil {
		t.Fatal("out-of-universe member accepted")
	}
	if _, err := NewTracker(6, []int{-1}); err == nil {
		t.Fatal("negative member accepted")
	}

	tr, err := NewTracker(6, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	seen := 0
	tr.Subscribe(func(View) { seen++ })
	if _, err := tr.JoinSite(1); err == nil {
		t.Fatal("double join accepted")
	}
	if _, err := tr.JoinSite(9); err == nil {
		t.Fatal("out-of-universe join accepted")
	}
	if _, err := tr.LeaveSite(5); err == nil {
		t.Fatal("leave of non-member accepted")
	}
	if v := tr.View(); v.Epoch != 0 || seen != 0 {
		t.Fatalf("rejected events moved the view to %v and notified %d times", v, seen)
	}
	if _, err := tr.LeaveSite(0); err != nil {
		t.Fatalf("legal leave rejected: %v", err)
	}
	if _, err := tr.LeaveSite(1); err != nil {
		t.Fatalf("legal leave rejected: %v", err)
	}
	if _, err := tr.LeaveSite(2); err == nil {
		t.Fatal("leave of last member accepted")
	}
}
