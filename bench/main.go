// Command bench is the repository's benchmark: five named workloads over
// the netnode data plane and the solvers, each checked for correctness
// while it is timed. See README.md for the vocabulary.
//
//	go run . [-seed N] [-workload W] [-out F]   every metric, by name
//	go run . compare A.json B.json              regression gate
//	go run . manifest                           print BENCHMARK.json
//
// The driver's form is `--workload W --seed N --seconds S --trace 0|1`
// (through run.sh), which prints one JSON result object as its last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "manifest":
			return printJSON(stdout, stderr, manifest())
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all five, each in its own child process)")
		seed    = fs.Uint64("seed", 1, "shapes the request stream or the change event; never reaches the system under test")
		seconds = fs.Float64("seconds", runSeconds, "measuring time per run (driver form)")
		trace   = fs.Int("trace", -1, "driver form: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out     = fs.String("out", "", "write the report JSON here")
		quick   = fs.Bool("quick", false, "test sizes: seconds, not minutes; numbers mean nothing")
		workdir = fs.String("workdir", ".bench_build/work", "scratch directory, created inside the checkout and removed at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := &runOpts{seed: *seed, seconds: *seconds, quick: *quick, log: stderr}
	switch *trace {
	case -1:
		o.mode = modeFull
	case 0:
		o.mode = modeE2E
	case 1:
		o.mode = modeLayers
	default:
		return fail(fmt.Errorf("-trace wants 0 or 1, got %d", *trace))
	}
	if o.mode != modeFull && *name == "" {
		return fail(fmt.Errorf("-trace needs -workload"))
	}

	var line string
	rep := &report{NProc: nproc(), GoVersion: runtime.Version(), Commit: commit(), Seed: *seed, Quick: *quick}
	if *name == "" {
		// Every workload in a child of its own, so that peak RSS and heap
		// state are the workload's and not its predecessors'.
		for i := range workloads {
			res, err := runChild(workloads[i].Name, o, *workdir, stdout, stderr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", workloads[i].Name, err))
			}
			rep.Workloads = append(rep.Workloads, *res)
		}
	} else {
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		dir, err := scratchDir(*workdir, w.Name+"-")
		if err != nil {
			return fail(err)
		}
		o.workdir = dir
		res, err := runWorkload(w, o)
		os.RemoveAll(dir)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		rep.Workloads = append(rep.Workloads, *res)
		if o.mode == modeFull {
			res.printTable(stdout)
		} else {
			res.printTable(stderr)
			if line, err = res.contractLine(*trace); err != nil {
				return fail(err)
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	if line != "" {
		fmt.Fprintln(stdout, line) // the driver reads the last line
	}
	return 0
}

// scratchDir makes a fresh directory under base, creating base first.
func scratchDir(base, prefix string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

func runWorkload(w *workloadSpec, o *runOpts) (*result, error) {
	switch w.Solver {
	case "dense":
		return runSolveDense(w, o)
	case "sparse":
		return runSolveSparse(w, o)
	}
	return runDataPlane(w, o)
}

// runChild re-executes this binary for one workload and reads back its
// report. The child's table goes straight to stdout.
func runChild(name string, o *runOpts, workdir string, stdout, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := scratchDir(workdir, "report-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	file := filepath.Join(tmp, "result.json")
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-workdir", workdir, "-out", file}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	rep, err := readReport(file)
	if err != nil {
		return nil, err
	}
	if len(rep.Workloads) != 1 {
		return nil, fmt.Errorf("child reported %d workloads", len(rep.Workloads))
	}
	return &rep.Workloads[0], nil
}

// commit names the measured source: BENCH_COMMIT if set, else git's HEAD
// when the directory is a repository (the driver's checkout is not).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// manifest is BENCHMARK.json, generated from the tables in spec.go.
func manifest() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	return m
}

func printJSON(stdout, stderr io.Writer, v any) int {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}
