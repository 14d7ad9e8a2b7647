package agra

import (
	"testing"

	"drp/internal/core"
	"drp/internal/sra"
)

// TestTightCapacityTranscriptionsStayValid runs Adapt on a tight-capacity
// scenario where transcription must evict replicas: the estimator repair
// has to leave the realised scheme and every transcribed chromosome valid.
func TestTightCapacityTranscriptionsStayValid(t *testing.T) {
	p := gen(t, 10, 20, 0.02, 0.06, 71)
	cur := sra.Run(p, sra.Options{}).Scheme
	res, err := Adapt(Input{
		Problem: p,
		Current: cur,
		Changed: []int{0, 1, 2, 3, 4, 5},
	}, microParams(5), miniParams(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scheme.Validate(); err != nil {
		t.Fatalf("invalid scheme: %v", err)
	}
	for i, bits := range res.Population {
		if _, err := core.SchemeFromBits(p, bits); err != nil {
			t.Fatalf("chromosome %d invalid: %v", i, err)
		}
	}
}
