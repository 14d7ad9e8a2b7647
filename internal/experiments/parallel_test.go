package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// parCfg is a Tiny campaign with enough networks to exercise the cell
// fan-out (Tiny uses 1 network, which leaves most workers idle).
func parCfg(par int) Config {
	cfg := Tiny()
	cfg.Networks = 2
	cfg.Parallelism = par
	return cfg
}

// TestRunStaticCellsLogsEveryCell checks the worker-side progress lines:
// each cell announces itself exactly once through the serialised logger.
func TestRunStaticCellsLogsEveryCell(t *testing.T) {
	cfg := parCfg(4)
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

func TestConfigRejectsNegativeParallelism(t *testing.T) {
	cfg := Tiny()
	cfg.Parallelism = -1
	if err := cfg.validate(); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}
