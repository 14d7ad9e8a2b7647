package plan

import (
	"reflect"
	"testing"
)

func TestViewEpochsAndEvents(t *testing.T) {
	founding := []int{2, 0, 1}
	v0, err := NewView(5, founding)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	if v0.Epoch != 0 || !reflect.DeepEqual(v0.Members, []int{0, 1, 2}) {
		t.Fatalf("founding view = %v", v0)
	}
	if !reflect.DeepEqual(founding, []int{2, 0, 1}) {
		t.Fatalf("NewView sorted its argument in place: %v", founding)
	}

	v1, err := v0.Join(5, 4)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if v1.Epoch != 1 || !reflect.DeepEqual(v1.Members, []int{0, 1, 2, 4}) {
		t.Fatalf("join view = %v", v1)
	}
	v2, err := v1.Leave(0)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if v2.Epoch != 2 || v2.Has(0) || !reflect.DeepEqual(v2.Members, []int{1, 2, 4}) {
		t.Fatalf("leave view = %v", v2)
	}
	v3, err := v2.Join(5, 3)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if v3.Epoch != 3 || !reflect.DeepEqual(v3.Members, []int{1, 2, 3, 4}) {
		t.Fatalf("join view = %v", v3)
	}
	// Transitions are pure: every earlier view is still what it was.
	for _, c := range []struct {
		v    View
		want []int
	}{{v0, []int{0, 1, 2}}, {v1, []int{0, 1, 2, 4}}, {v2, []int{1, 2, 4}}} {
		if !reflect.DeepEqual(c.v.Members, c.want) {
			t.Fatalf("a later transition changed %v, want members %v", c.v, c.want)
		}
	}
}

func TestViewRejections(t *testing.T) {
	for _, members := range [][]int{nil, {0, 0, 1}, {0, 6}, {-1}} {
		if v, err := NewView(6, members); err == nil {
			t.Fatalf("founding members %v accepted as %v", members, v)
		}
	}

	v, err := NewView(6, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	if _, err := v.Join(6, 1); err == nil {
		t.Fatal("double join accepted")
	}
	for _, site := range []int{6, 9, -1} {
		if _, err := v.Join(6, site); err == nil {
			t.Fatalf("out-of-universe join of %d accepted", site)
		}
	}
	if _, err := v.Leave(5); err == nil {
		t.Fatal("leave of non-member accepted")
	}
	if v.Epoch != 0 || !reflect.DeepEqual(v.Members, []int{0, 1, 2}) {
		t.Fatalf("rejected events moved the view to %v", v)
	}
	if v, err = v.Leave(0); err != nil {
		t.Fatalf("legal leave rejected: %v", err)
	}
	if v, err = v.Leave(1); err != nil {
		t.Fatalf("legal leave rejected: %v", err)
	}
	if _, err := v.Leave(2); err == nil {
		t.Fatal("leave of last member accepted")
	}
	if v.Epoch != 2 || !reflect.DeepEqual(v.Members, []int{2}) {
		t.Fatalf("last-member view = %v", v)
	}
}
