//go:build !race

package spans

import (
	"errors"
	"testing"
)

// Tracing off is a nil *Tracer, and every request's path still calls it,
// so that path must not allocate. The count holds on any host, unlike
// the timing it stands behind; the race detector's runtime allocates on its
// own, so it is taken without it.

func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	err := errors.New("refused")
	// AllocsPerRun runs the function at GOMAXPROCS 1.
	got := testing.AllocsPerRun(1000, func() {
		root := tr.Root("read")
		root.SetSite(1)
		root.SetObject(2)
		hop := root.Child("read.hop")
		hop.SetPeer(3)
		hop.SetHop(0)
		hop.SetAttempt(1)
		hop.SetNTC(40)
		hop.SetErr(err)
		hop.SetErrText("refused")
		hop.SetVerdict("ok")
		hop.SetAttr("source", "local")
		hop.Finish()
		root.Finish()
	})
	if got != 0 {
		t.Errorf("a nil tracer's request path allocates %v times", got)
	}
}
