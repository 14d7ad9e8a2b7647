// Package cli holds the flag groups the drp commands share. Each group is
// a plain struct whose fields are its flags' values: a command sets the
// fields that carry its own defaults, calls Register to declare the flags
// it has, hands the group's Check to Parse, and then calls the group's
// other methods to act. Every "X needs Y" and range rule of a group is
// written here once; rules relating flags of different groups stay in the
// command.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"drp/internal/core"
	"drp/internal/gra"
	"drp/internal/metrics"
	"drp/internal/solver"
	"drp/internal/spans"
	"drp/internal/sra"
	"drp/internal/store"
	"drp/internal/workload"
)

// Main runs a command on the process's arguments and standard output; a
// failed run is reported on standard error under the command's name and
// exits with status 1.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Parse parses args into fs and then runs the groups' checks, so every
// flag error is reported before the command opens anything.
func Parse(fs *flag.FlagSet, args []string, checks ...func() error) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, check := range checks {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// pick declares on dst the named flags of a group's full set fs, so a
// command accepts exactly the flags it asked for.
func pick(dst, fs *flag.FlagSet, names []string) {
	for _, n := range names {
		f := fs.Lookup(n)
		if f == nil {
			panic("cli: the " + fs.Name() + " group has no flag -" + n)
		}
		dst.Var(f.Value, f.Name, f.Usage)
	}
}

// CloseInto runs close and stores its error in *err unless the run has
// already failed: `defer cli.CloseInto(&err, tel.Close)`.
func CloseInto(err *error, close func() error) {
	if cerr := close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// Problem is the instance source: -sites -objects -update -capacity -seed
// generate an instance of the paper's Section 6.1 workload, -in reads one.
// Sites and Objects hold the command's defaults when Register is called; a
// command without the generator flags sets Stdin, which Load reads instead.
type Problem struct {
	Sites, Objects   int
	Update, Capacity float64
	Seed             uint64
	In               string
	Stdin            io.Reader
}

// Register declares the named flags of the group on dst.
func (p *Problem) Register(dst *flag.FlagSet, names ...string) {
	fs := flag.NewFlagSet("problem", flag.ContinueOnError)
	fs.IntVar(&p.Sites, "sites", p.Sites, "number of sites M of the generated problem")
	fs.IntVar(&p.Objects, "objects", p.Objects, "number of objects N of the generated problem")
	fs.Float64Var(&p.Update, "update", 0.05, "update ratio U (updates as a fraction of reads)")
	fs.Float64Var(&p.Capacity, "capacity", 0.15, "capacity ratio C (site storage as a fraction of total object size)")
	fs.Uint64Var(&p.Seed, "seed", 1, "seed of the generated problem and of every randomised step of the run")
	fs.StringVar(&p.In, "in", "", "problem JSON (default: generate from the flags above, or read stdin where there are none)")
	pick(dst, fs, names)
}

// Load reads the problem named by -in; without -in it reads Stdin if the
// command set it and otherwise generates from the spec.
func (p *Problem) Load() (*core.Problem, error) {
	switch {
	case p.In != "":
	case p.Stdin != nil:
		return core.ReadProblem(p.Stdin)
	default:
		return workload.Generate(workload.NewSpec(p.Sites, p.Objects, p.Update, p.Capacity), p.Seed)
	}
	f, err := os.Open(p.In)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadProblem(f)
}

// ResolvePlacement maps a placement name — none, sra, gra, or the path of
// a scheme file — to a replication scheme over p; gra runs with params.
func ResolvePlacement(p *core.Problem, name string, params gra.Params) (*core.Scheme, error) {
	switch name {
	case "none":
		return core.NewScheme(p), nil
	case "sra":
		return sra.Run(p, sra.Options{}).Scheme, nil
	case "gra":
		res, err := gra.Run(p, params)
		if err != nil {
			return nil, err
		}
		return res.Scheme, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("placement %q is not an algorithm (none|sra|gra) or a readable scheme file: %w", name, err)
	}
	defer f.Close()
	return core.ReadScheme(p, f)
}

// Durability is -data-dir -fsync -snapshot-every; the last two tune the
// sites' write-ahead logs. Check fills Store with the options the flags
// select: zero, the in-memory store, without -data-dir.
type Durability struct {
	Dir, Fsync    string
	SnapshotEvery int
	Store         store.Options
}

// Register declares the named flags of the group on dst.
func (d *Durability) Register(dst *flag.FlagSet, names ...string) {
	fs := flag.NewFlagSet("durability", flag.ContinueOnError)
	fs.StringVar(&d.Dir, "data-dir", "", "persist the run's state (each site's write-ahead log, the coordinator's or monitor's plan journal) under this directory; a rerun on the same directory resumes from it")
	fs.StringVar(&d.Fsync, "fsync", "always", `site log fsync policy: "always", "never" or "every:N" (requires -data-dir)`)
	fs.IntVar(&d.SnapshotEvery, "snapshot-every", 0, "snapshot and truncate each site's log every N appended records (0 = never; requires -data-dir)")
	pick(dst, fs, names)
}

// Check reports the first violated rule of the group.
func (d *Durability) Check() (err error) {
	switch {
	case d.SnapshotEvery < 0:
		err = fmt.Errorf("-snapshot-every %d cannot be negative", d.SnapshotEvery)
	case d.Dir != "":
		d.Store.SnapshotEvery = d.SnapshotEvery
		d.Store.Sync, d.Store.SyncEvery, err = store.ParseSyncPolicy(d.Fsync)
	case d.SnapshotEvery > 0:
		err = fmt.Errorf("-snapshot-every needs -data-dir")
	case d.Fsync != "always":
		err = fmt.Errorf("-fsync needs -data-dir")
	}
	return err
}

// Caps is the anytime controls of a solver run: -timeout -budget -progress.
type Caps struct {
	Timeout  time.Duration
	Budget   int
	Progress bool
}

// Register declares the group's three flags on fs.
func (c *Caps) Register(fs *flag.FlagSet) {
	fs.DurationVar(&c.Timeout, "timeout", 0, "wall-clock cap per solver run; a capped run reports its best scheme so far (0 = none)")
	fs.IntVar(&c.Budget, "budget", 0, "cost-model evaluation cap per solver run (0 = none)")
	fs.BoolVar(&c.Progress, "progress", false, "stream per-iteration solver progress to stderr")
}

// Check reports the first violated rule of the group.
func (c *Caps) Check() error {
	if c.Timeout < 0 {
		return fmt.Errorf("-timeout %v cannot be negative", c.Timeout)
	}
	return nil
}

// Run returns the solver controls the flags select. The -progress
// observer is synchronized, so concurrent runs may share it.
func (c *Caps) Run(stderr io.Writer) solver.Run {
	run := solver.Run{Timeout: c.Timeout, Budget: c.Budget}
	if c.Progress {
		run.Observer = solver.Synchronized(solver.ObserverFunc(func(pr solver.Progress) {
			fmt.Fprintf(stderr, "%s it=%d best=%.4f cost=%d evals=%d elapsed=%v\n",
				pr.Algorithm, pr.Iteration, pr.BestFitness, pr.BestCost, pr.Evaluations, pr.Elapsed.Round(time.Millisecond))
		}))
	}
	return run
}

// Telemetry is the sinks a run reports to: -metrics-out -events
// -listen-metrics -serve-for and the span file -trace-out -trace-sample
// -trace-clock. Noun names what one trace covers ("request", "epoch"); a
// command that does not register -trace-clock may set TraceClock after
// Parse. Open fills Reg (kept if the command already set one, else nil
// unless -metrics-out or -listen-metrics asked for a registry), Events
// (nil without -events) and Tracer (nil without -trace-out); every
// instrumented package accepts nil as "off".
type Telemetry struct {
	MetricsOut, EventsOut, Listen string
	ServeFor                      time.Duration
	TraceOut, TraceClock, Noun    string
	TraceSample                   int64

	Reg        *metrics.Registry
	Events     *metrics.EventLog
	Tracer     *spans.Tracer
	file       *os.File
	closeTrace func() error
	srv        *metrics.Server
}

// Register declares the named flags of the group on dst.
func (t *Telemetry) Register(dst *flag.FlagSet, names ...string) {
	fs := flag.NewFlagSet("telemetry", flag.ContinueOnError)
	fs.StringVar(&t.MetricsOut, "metrics-out", "", "write a JSON snapshot of the run's metrics registry to this file")
	fs.StringVar(&t.EventsOut, "events", "", "write structured JSONL events to this file")
	fs.StringVar(&t.Listen, "listen-metrics", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:0)")
	fs.DurationVar(&t.ServeFor, "serve-for", 0, "keep the metrics endpoint up this long after the run (0 = exit immediately; requires -listen-metrics)")
	fs.StringVar(&t.TraceOut, "trace-out", "", "record one JSON span per line to this file, a trace per "+t.Noun+" (analyse with drptrace)")
	fs.Int64Var(&t.TraceSample, "trace-sample", 1, "trace every nth "+t.Noun+" (deterministic counter, not probability; requires -trace-out)")
	fs.StringVar(&t.TraceClock, "trace-clock", "logical", `span timestamp source: "logical" (deterministic ticks) or "wall" (real durations; requires -trace-out)`)
	pick(dst, fs, names)
}

// Check reports the first violated rule of the group.
func (t *Telemetry) Check() error {
	switch {
	case t.ServeFor < 0:
		return fmt.Errorf("-serve-for %v cannot be negative", t.ServeFor)
	case t.Listen == "" && t.ServeFor > 0:
		return fmt.Errorf("-serve-for keeps the metrics endpoint alive and needs -listen-metrics")
	case t.TraceOut == "" && t.TraceSample != 1:
		return fmt.Errorf("-trace-sample selects the traced %ss and needs -trace-out", t.Noun)
	case t.TraceOut == "" && t.TraceClock != "logical":
		return fmt.Errorf("-trace-clock sets the span clock and needs -trace-out")
	case t.TraceSample < 1:
		return fmt.Errorf("-trace-sample %d must be at least 1", t.TraceSample)
	case t.TraceClock != "logical" && t.TraceClock != "wall" && t.TraceClock != "":
		return fmt.Errorf("-trace-clock %q: want logical or wall", t.TraceClock)
	}
	return nil
}

// Open creates the sinks the flags ask for and announces the span file and
// the endpoint's address on stdout. Spans go to the -trace-out file only,
// never to the -events sink. With -listen-metrics each families function
// runs on the registry before the endpoint starts, so the first scrape
// already shows every family, at zero. After a nil return the caller must
// Close.
func (t *Telemetry) Open(stdout io.Writer, families ...func(*metrics.Registry)) (err error) {
	if t.Reg == nil && (t.MetricsOut != "" || t.Listen != "") {
		t.Reg = metrics.NewRegistry()
	}
	if t.EventsOut != "" {
		if t.file, err = os.Create(t.EventsOut); err != nil {
			return err
		}
		t.Events = metrics.NewEventLog(t.file)
	}
	if t.TraceOut != "" {
		t.Tracer, t.closeTrace, err = spans.OpenFile(t.TraceOut, t.TraceSample, t.TraceClock)
		if err != nil {
			t.closeFiles()
			return err
		}
		fmt.Fprintf(stdout, "tracing %ss to %s (sample 1/%d, %s clock)\n", t.Noun, t.TraceOut, t.TraceSample, t.TraceClock)
	}
	if t.Listen != "" {
		for _, register := range families {
			register(t.Reg)
		}
		if t.srv, err = metrics.Serve(t.Listen, t.Reg); err != nil {
			t.closeFiles()
			return err
		}
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", t.srv.Addr())
	}
	return nil
}

// Close writes the -metrics-out snapshot, flushes and closes the span and
// -events files, keeps the endpoint up for -serve-for and then stops it.
// It returns the first error of any sink, so a full disk fails the run.
func (t *Telemetry) Close() error {
	var first error
	keep := func(sink string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", sink, err)
		}
	}
	if t.MetricsOut != "" {
		keep("-metrics-out", metrics.WriteSnapshotFile(t.Reg, t.MetricsOut))
	}
	if t.Events != nil {
		keep("-events", t.Events.Flush())
	}
	traceErr, eventsErr := t.closeFiles()
	keep("-trace-out", traceErr)
	keep("-events", eventsErr)
	if t.srv != nil {
		time.Sleep(t.ServeFor)
		keep("-listen-metrics", t.srv.Close())
	}
	return first
}

// closeFiles closes the span file and the -events file, if open.
func (t *Telemetry) closeFiles() (traceErr, eventsErr error) {
	if t.closeTrace != nil {
		traceErr = t.closeTrace()
	}
	if t.file != nil {
		eventsErr = t.file.Close()
	}
	return traceErr, eventsErr
}
