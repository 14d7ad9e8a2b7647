package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *FigureResult {
	return &FigureResult{
		ID:     "3a",
		Title:  "Savings vs update <ratio> & \"stuff\"",
		XLabel: "update ratio %",
		YLabel: "% NTC savings",
		X:      []float64{1, 5, 10},
		Series: []Series{
			{Name: "SRA", Y: []float64{40, 10, 0}},
			{Name: "GRA", Y: []float64{42, 20, 6}},
		},
	}
}

func TestSVGStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().RenderSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<svg", "</svg>",
		"Figure 3a",
		"update ratio %",
		"% NTC savings",
		"SRA", "GRA",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if got := strings.Count(out, "<polyline"); got != 2 {
		t.Errorf("%d polylines, want 2", got)
	}
	// 2 series × 3 points = 6 markers.
	if got := strings.Count(out, "<circle"); got != 6 {
		t.Errorf("%d markers, want 6", got)
	}
}

func TestSVGEscapesMarkup(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().RenderSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "<ratio>") {
		t.Fatal("unescaped markup in title")
	}
	if !strings.Contains(out, "&lt;ratio&gt;") {
		t.Fatal("escaped title missing")
	}
}

func TestSVGRejectsEmptyFigure(t *testing.T) {
	if err := (&FigureResult{ID: "1a"}).RenderSVG(&bytes.Buffer{}); err == nil {
		t.Fatal("empty figure accepted")
	}
}

func TestSVGHandlesConstantSeries(t *testing.T) {
	fig := &FigureResult{
		ID: "x", Title: "flat", XLabel: "x", YLabel: "y",
		X:      []float64{2, 2},
		Series: []Series{{Name: "c", Y: []float64{5, 5}}},
	}
	var buf bytes.Buffer
	if err := fig.RenderSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("degenerate ranges produced NaN coordinates")
	}
}

func TestSVGManySeriesColourLoop(t *testing.T) {
	fig := sample()
	for i := 0; i < 12; i++ {
		fig.Series = append(fig.Series, Series{
			Name: strings.Repeat("s", i+1),
			Y:    []float64{float64(i), float64(i + 1), float64(i + 2)},
		})
	}
	var buf bytes.Buffer
	if err := fig.RenderSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "<polyline"); got != 14 {
		t.Fatalf("%d polylines, want 14", got)
	}
}
