package experiments

import (
	"fmt"
	"slices"
	"sync"
)

// logf receives progress messages; campaigns are long-running.
type logf func(format string, args ...interface{})

// syncLogf serialises a logf so sweep workers can emit progress lines
// concurrently; the sink (os.Stderr, a test buffer) need not be
// goroutine-safe.
func syncLogf(log logf) logf {
	var mu sync.Mutex
	return func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		log(format, args...)
	}
}

// figureRow is one figure of the paper's Section 6: one column of one
// sweep, filtered to some of its series.
type figureRow struct {
	id, title, xLabel, yLabel string
	sweep                     int
	col                       column
	keep                      func(index int) bool // by index in the instance's vector; nil keeps all
}

var figures = []figureRow{
	{"1a", "Savings in network cost versus the number of sites", "sites", "% NTC savings", bySites, savings, nil},
	{"1b", "Number of replicas generated versus the number of sites", "sites", "replicas", bySites, replicas, nil},
	{"1c", "Savings in network cost versus the number of objects", "objects", "% NTC savings", byObjects, savings, nil},
	{"1d", "Number of replicas generated versus the number of objects", "objects", "replicas", byObjects, replicas, nil},
	{"2a", "Execution time of SRA versus the number of sites", "sites", "time (ms)", bySites, ms, only(sraSeries)},
	{"2b", "Execution time of GRA versus the number of sites", "sites", "time (ms)", bySites, ms, only(graSeries)},
	{"3a", "Savings in network cost versus the update ratio", "update ratio %", "% NTC savings", byUpdate, savings, nil},
	{"3b", "Savings in network cost versus the capacity of sites", "capacity %", "% NTC savings", byCapacity, savings, nil},
	{"4a", "Savings versus the share of objects with reads increased", "% objects changed", "% NTC savings", adaptReads, savings, nil},
	{"4b", "Savings versus the share of objects with updates increased", "% objects changed", "% NTC savings", adaptWrites, savings, nil},
	{"4c", "Savings versus the kind of pattern change (read share of changes)", "% of changes toward reads", "% NTC savings", adaptMix, savings, nil},
	{"4d", "Execution time of the adaptation policies", "% objects changed", "execution time (ms)", adaptReads, ms, except(currentSeries)},
}

func only(i int) func(int) bool   { return func(j int) bool { return j == i } }
func except(i int) func(int) bool { return func(j int) bool { return j != i } }

// FigureIDs lists every figure of the paper's evaluation section that the
// harness reproduces, in paper order.
var FigureIDs = func() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}()

// ValidFigure reports whether id names a reproduced figure.
func ValidFigure(id string) bool { return slices.Contains(FigureIDs, id) }

// Campaign lazily runs the sweeps behind the paper's figures, caching each
// sweep so figure groups (1a/1b/2a/2b all come from one sweep) are computed
// once.
type Campaign struct {
	cfg    Config
	log    logf
	sweeps [len(sweepTable)]*sweep
}

// NewCampaign validates cfg and returns a campaign. logFn may be nil.
func NewCampaign(cfg Config, logFn func(format string, args ...interface{})) (*Campaign, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if logFn == nil {
		logFn = func(string, ...interface{}) {}
	}
	return &Campaign{cfg: cfg, log: logFn}, nil
}

// Figure reproduces one figure by ID (see FigureIDs).
func (c *Campaign) Figure(id string) (*FigureResult, error) {
	i := slices.Index(FigureIDs, id)
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown figure %q (want one of %v)", id, FigureIDs)
	}
	f := figures[i]
	s := c.sweeps[f.sweep]
	if s == nil {
		var err error
		if s, err = sweepTable[f.sweep].run(c.cfg, c.log); err != nil {
			return nil, err
		}
		c.sweeps[f.sweep] = s
	}
	fig := &FigureResult{ID: f.id, Title: f.title, XLabel: f.xLabel, YLabel: f.yLabel, X: s.x}
	for _, cv := range s.series {
		if f.keep == nil || f.keep(cv.index) {
			fig.Series = append(fig.Series, Series{Name: cv.name, Y: cv.y[f.col]})
		}
	}
	return fig, nil
}
