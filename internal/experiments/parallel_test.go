package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestRunStaticCellsLogsEveryCell checks the worker-side progress lines:
// each cell announces itself exactly once through the serialised logger,
// with four workers and two networks (Tiny's one would leave most workers
// idle).
func TestRunStaticCellsLogsEveryCell(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Tiny()
	cfg.Networks = 2
	var buf bytes.Buffer
	// The sink is deliberately not goroutine-safe: the sweep engine's own
	// serialisation is what keeps the race detector quiet here.
	log := func(format string, args ...interface{}) {
		fmt.Fprintf(&buf, format+"\n", args...)
	}
	if _, err := sweepTable[byCapacity].run(cfg, log); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig3b: C=10%", "fig3b: C=30%"} {
		if strings.Count(out, want) != 1 {
			t.Fatalf("progress line %q appeared %d times in %q", want, strings.Count(out, want), out)
		}
	}
}
