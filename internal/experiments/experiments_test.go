package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"paper": Paper(),
		"quick": Quick(),
		"tiny":  Tiny(),
	} {
		if err := cfg.validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
}

func TestValidFigure(t *testing.T) {
	for _, id := range FigureIDs {
		if !ValidFigure(id) {
			t.Errorf("ValidFigure(%q) = false", id)
		}
	}
	for _, id := range []string{"", "5a", "1e", "fig1a"} {
		if ValidFigure(id) {
			t.Errorf("ValidFigure(%q) = true", id)
		}
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	cfg := Tiny()
	cfg.Networks = 0
	if _, err := NewCampaign(cfg, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCampaignUnknownFigure(t *testing.T) {
	c, err := NewCampaign(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Figure("9z"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTinyCampaignAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	c, err := NewCampaign(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := all(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(FigureIDs) {
		t.Fatalf("%d figures, want %d", len(figs), len(FigureIDs))
	}
	for _, fig := range figs {
		if len(fig.X) == 0 {
			t.Errorf("figure %s has no x points", fig.ID)
		}
		if len(fig.Series) == 0 {
			t.Errorf("figure %s has no series", fig.ID)
		}
		for _, s := range fig.Series {
			if len(s.Y) != len(fig.X) {
				t.Errorf("figure %s series %q has %d points for %d x values", fig.ID, s.Name, len(s.Y), len(fig.X))
			}
		}
	}
	// Core paper claim: GRA savings ≥ SRA savings at every shared point of
	// figure 1(a) (allowing a whisker of GA noise at tiny budgets).
	fig1a := figs[0]
	for _, u := range []string{"U=2%", "U=10%"} {
		sra := get(fig1a, "SRA "+u)
		gra := get(fig1a, "GRA "+u)
		if sra == nil || gra == nil {
			t.Fatalf("figure 1a missing series for %s: have %v", u, names(fig1a))
		}
		for i := range sra.Y {
			if gra.Y[i] < sra.Y[i]-8 {
				t.Errorf("fig1a %s x=%v: GRA %.2f%% much worse than SRA %.2f%%", u, fig1a.X[i], gra.Y[i], sra.Y[i])
			}
		}
	}
}

// all reproduces every figure, sharing sweeps between related figures.
func all(c *Campaign) ([]*FigureResult, error) {
	out := make([]*FigureResult, 0, len(FigureIDs))
	for _, id := range FigureIDs {
		fig, err := c.Figure(id)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// get returns the series of f with the given name, or nil.
func get(f *FigureResult, name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

func names(f *FigureResult) []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Name
	}
	return out
}

func TestFigureRender(t *testing.T) {
	fig := &FigureResult{
		ID:     "1a",
		Title:  "test figure",
		XLabel: "sites",
		YLabel: "% savings",
		X:      []float64{10, 20},
		Series: []Series{
			{Name: "SRA", Y: []float64{1.5, 2}},
			{Name: "GRA", Y: []float64{3, 4.25}},
		},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1a", "SRA", "GRA", "1.5", "4.25", "sites"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := fig.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "sites,SRA,GRA" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if lines[1] != "10,1.5,3" {
		t.Fatalf("CSV row = %q", lines[1])
	}
}

func TestFigureGet(t *testing.T) {
	fig := &FigureResult{Series: []Series{{Name: "a"}, {Name: "b"}}}
	if get(fig, "b") == nil || get(fig, "c") != nil {
		t.Fatal("Get lookup broken")
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{1.5, "1.5"},
		{1.25, "1.25"},
		{1.2345, "1.234"},
		{0, "0"},
		{-3, "-3"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
}

func TestPointSeedDistinct(t *testing.T) {
	cfg := Tiny()
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 10; a++ {
		for b := uint64(0); b < 10; b++ {
			s := cfg.pointSeed(a, b)
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", a, b)
			}
			seen[s] = true
		}
	}
	if cfg.pointSeed(1, 2) != cfg.pointSeed(1, 2) {
		t.Fatal("pointSeed not deterministic")
	}
}

func TestCsvEscape(t *testing.T) {
	if got := csvEscape(`plain`); got != "plain" {
		t.Fatalf("csvEscape plain = %q", got)
	}
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Fatalf("csvEscape comma = %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Fatalf("csvEscape quote = %q", got)
	}
}

func TestRunSummary(t *testing.T) {
	res, err := RunSummary(Tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	byName := make(map[string]SummaryRow, len(res.Rows))
	for _, row := range res.Rows {
		byName[row.Algorithm] = row
	}
	if byName["no replication"].Savings != 0 {
		t.Fatal("no-replication savings not zero")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SRA (paper)") {
		t.Fatalf("summary table missing rows:\n%s", buf.String())
	}
}

func TestRunConvergence(t *testing.T) {
	cfg := Tiny()
	fig, err := RunConvergence(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != cfg.GRAGens+1 {
		t.Fatalf("%d generations plotted, want %d", len(fig.X), cfg.GRAGens+1)
	}
	if len(fig.Series) != 2*len(cfg.UpdateRatios) {
		t.Fatalf("%d series, want %d", len(fig.Series), 2*len(cfg.UpdateRatios))
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(fig.X) {
			t.Fatalf("series %q has %d points", s.Name, len(s.Y))
		}
	}
	// Best fitness is monotone by elitism.
	best := fig.Series[0]
	for i := 1; i < len(best.Y); i++ {
		if best.Y[i] < best.Y[i-1] {
			t.Fatal("best fitness regressed")
		}
	}
}

func TestSummaryRejectsBadConfig(t *testing.T) {
	cfg := Tiny()
	cfg.GRAPop = 0
	if _, err := RunSummary(cfg, nil); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := RunConvergence(cfg, nil); err == nil {
		t.Fatal("bad config accepted by convergence")
	}
}
