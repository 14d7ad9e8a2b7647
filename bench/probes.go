package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"drp/internal/core"
	"drp/internal/fault"
	"drp/internal/load"
	"drp/internal/metrics"
	"drp/internal/spans"
	"drp/internal/store"
)

func nproc() int { return runtime.GOMAXPROCS(0) }

// timeEach runs fn n times and returns the per-call times in ns, sorted.
func timeEach(n int, fn func(i int) error) ([]int64, error) {
	out := make([]int64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// meanNS times n back-to-back calls as one interval: for calls too short
// to time one by one.
func meanNS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// pair is a (site, object) probe target.
type pair struct{ site, obj int }

// netnodeProbes measures the transport and the node's serving paths one at
// a time, from a single client.
func (b *bed) netnodeProbes(o *runOpts, m metricSet) error {
	var remoteReads, remoteWrites, local []pair
	for i := 0; i < b.p.Sites(); i++ {
		for k := 0; k < b.p.Objects(); k++ {
			if b.scheme.Has(i, k) {
				local = append(local, pair{i, k})
			} else {
				remoteReads = append(remoteReads, pair{i, k})
			}
			if b.p.Primary(k) != i {
				remoteWrites = append(remoteWrites, pair{i, k})
			}
		}
	}

	// The bench's own JSON-line client against a node's listener: a fresh
	// connection per request (what callOnce does today) against one reused
	// connection. The gap is what persistent connections could save.
	obj := 0
	addr := b.c.Node(b.p.Primary(obj)).Addr()
	line := fmt.Sprintf("{\"op\":\"read\",\"obj\":%d}\n", obj)
	var wire int
	exchange := func(conn net.Conn, r *bufio.Reader) error {
		if _, err := conn.Write([]byte(line)); err != nil {
			return err
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if !strings.Contains(reply, `"ok":true`) {
			return fmt.Errorf("raw rpc rejected: %s", strings.TrimSpace(reply))
		}
		wire = len(line) + len(reply)
		return nil
	}
	dial, err := timeEach(o.scale(2000), func(int) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		return exchange(conn, bufio.NewReader(conn))
	})
	if err != nil {
		return fmt.Errorf("rpc_dial probe: %w", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	reader := bufio.NewReader(conn)
	reused, err := timeEach(o.scale(5000), func(int) error { return exchange(conn, reader) })
	if err != nil {
		return fmt.Errorf("rpc_conn probe: %w", err)
	}
	m.put("netnode.rpc_dial_us", us(percentile(dial, 0.5)))
	m.put("netnode.rpc_conn_us", us(percentile(reused, 0.5)))
	m.put("netnode.rpc_bytes", float64(wire))

	readRemote := func(n int) ([]int64, error) {
		return timeEach(n, func(i int) error {
			t := remoteReads[i%len(remoteReads)]
			_, err := b.c.Node(t.site).Read(t.obj)
			return err
		})
	}
	remoteN := o.scale(2000)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	plain, err := readRemote(remoteN)
	if err != nil {
		return fmt.Errorf("read_remote probe: %w", err)
	}
	runtime.ReadMemStats(&mem1)
	m.put("netnode.read_remote_us", us(percentile(plain, 0.5)))
	// Heap allocations per remote read, both ends of the hop (one process).
	m.put("netnode.rpc_allocs", float64(mem1.Mallocs-mem0.Mallocs)/float64(remoteN))

	// The same hop through an injector whose plan has no events.
	fault.Attach(b.c, fault.NewInjector(fault.Plan{}))
	through, err := readRemote(remoteN)
	for i := 0; i < b.p.Sites(); i++ {
		b.c.Node(i).SetDialer(nil)
	}
	b.c.SetCommandDialer(nil)
	b.c.SetRequestHook(nil)
	if err != nil {
		return fmt.Errorf("fault passthrough probe: %w", err)
	}
	m.put("fault.passthrough_us", us(percentile(through, 0.5)-percentile(plain, 0.5)))

	writes, err := timeEach(remoteN/2, func(i int) error {
		t := remoteWrites[i%len(remoteWrites)]
		_, err := b.c.Node(t.site).Write(t.obj)
		return err
	})
	if err != nil {
		return fmt.Errorf("write_remote probe: %w", err)
	}
	m.put("netnode.write_remote_us", us(percentile(writes, 0.5)))

	// Local reads from one goroutine, then from every client goroutine on
	// the same node: the gap is contention on the node's lock.
	site := local[0].site
	var mine []int
	for _, t := range local {
		if t.site == site {
			mine = append(mine, t.obj)
		}
	}
	node := b.c.Node(site)
	localN := o.scale(200000)
	read := func(i int) { _, _ = node.Read(mine[i%len(mine)]) }
	m.put("netnode.read_local_ns", meanNS(localN, read))
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < clients(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < localN; i++ {
				read(i)
			}
		}()
	}
	wg.Wait()
	m.put("netnode.read_local_par_ns", float64(time.Since(t0).Nanoseconds())/float64(localN))
	return nil
}

// dirBytes sums the sizes of the files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// storeProbes measures the storage engine alone, in dir on the same
// filesystem as the durable cluster: the raw device first, then one WAL
// record per call under each fsync policy.
func storeProbes(dir string, o *runOpts, m metricSet) (flags []string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	block := make([]byte, 64)
	probe, err := timeEach(o.scale(300), func(int) error {
		if _, err := f.Write(block); err != nil {
			return err
		}
		return f.Sync()
	})
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}
	probeUS := us(percentile(probe, 0.5))
	m.put("store.fsync_probe_us", probeUS)
	if probeUS < 20 {
		// No real device flushes in under 20 µs: the directory is on tmpfs
		// or behind a write cache that acknowledges early.
		flags = append(flags, "fsync_is_free")
	}

	open := func(name string, opts store.Options) (*store.Store, error) {
		return store.Open(filepath.Join(dir, name), 0, []int{0}, opts)
	}
	st, err := open("always", store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, err
	}
	always, err := timeEach(o.scale(300), func(int) error { return st.AddNTC(1) })
	st.Close()
	if err != nil {
		return nil, fmt.Errorf("append probe: %w", err)
	}
	m.put("store.append_always_us", us(percentile(always, 0.5)))

	// Policies that skip most fsyncs are timed as a whole: the mean is what
	// a stream of appends pays.
	var appendErr error
	add := func(int) {
		if err := st.AddNTC(1); err != nil {
			appendErr = err
		}
	}
	if st, err = open("every16", store.Options{Sync: store.SyncInterval, SyncEvery: 16}); err != nil {
		return nil, err
	}
	m.put("store.append_every16_us", meanNS(o.scale(3200), add)/1e3)
	st.Close()
	if st, err = open("never", store.Options{Sync: store.SyncNever}); err != nil {
		return nil, err
	}
	neverN := o.scale(20000)
	m.put("store.append_never_us", meanNS(neverN, add)/1e3)
	st.Close()
	if appendErr != nil {
		return nil, fmt.Errorf("append probe: %w", appendErr)
	}
	size, err := dirBytes(filepath.Join(dir, "never"))
	if err != nil {
		return nil, err
	}
	m.put("store.wal_bytes_per_append", float64(size)/float64(neverN))

	// Concurrent appenders on one log. One fsync per append today; group
	// commit would lower the ratio.
	reg := metrics.NewRegistry()
	if st, err = open("par", store.Options{Sync: store.SyncAlways, Metrics: reg}); err != nil {
		return nil, err
	}
	defer st.Close()
	parN := o.scale(300)
	errs := make([]error, clients())
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < parN && errs[g] == nil; i++ {
				errs[g] = st.AddNTC(1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parallel append probe: %w", err)
		}
	}
	m.put("store.append_par_always_us", us(time.Since(t0).Nanoseconds())/float64(parN))
	appends := reg.Counter("drp_store_appends_total", "", nil).Value()
	fsyncs := reg.Counter("drp_store_fsyncs_total", "", nil).Value()
	m.put("store.fsyncs_per_append_par", float64(fsyncs)/float64(appends))
	return flags, nil
}

// libraryProbes times the observability and load-generation primitives in
// isolation: none of them runs during the end-to-end rounds, so each is
// bounded on its own.
func libraryProbes(p *core.Problem, o *runOpts, m metricSet) {
	n := o.scale(1000000)

	tr := spans.New(&spans.Collector{})
	tr.SetClock(spans.WallClock{})
	spanN := o.scale(100000)
	m.put("spans.record_ns", meanNS(spanN, func(int) {
		root := tr.Root("read")
		hop := root.Child("read.hop")
		hop.Finish()
		root.Finish()
	})/2)

	reg := metrics.NewRegistry()
	ctr := reg.Counter("bench_probe_total", "probe", nil)
	m.put("metrics.counter_inc_ns", meanNS(n, func(int) { ctr.Inc() }))
	hist := reg.Histogram("bench_probe_seconds", "probe", metrics.LatencyBuckets(), nil)
	m.put("metrics.hist_observe_ns", meanNS(n, func(i int) { hist.Observe(float64(i%1000) * 1e-5) }))

	lh := load.NewHist()
	m.put("load.hist_record_ns", meanNS(n, func(i int) { lh.Record(int64(i%100000) * 100) }))

	pr := load.DefaultProfile()
	pr.Arrival = load.ArrivalUniform
	pr.Rate = float64(o.scale(100000))
	pr.DurationMS = 1000
	t0 := time.Now()
	sched, err := load.BuildSchedule(p.Sites(), p.Objects(), pr)
	if err == nil && len(sched.Requests) > 0 {
		m.put("load.sched_build_ns_per_req", float64(time.Since(t0).Nanoseconds())/float64(len(sched.Requests)))
	}
}

// procSnapshot is the process's cumulative CPU and heap accounting.
type procSnapshot struct {
	cpu                time.Duration
	mallocs, allocated uint64
	gcPause            time.Duration
}

func procSnap() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return procSnapshot{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   mem.Mallocs,
		allocated: mem.TotalAlloc,
		gcPause:   time.Duration(mem.PauseTotalNs),
	}
}

// since returns what the process has spent since a.
func (a procSnapshot) since() procSnapshot {
	now := procSnap()
	return procSnapshot{now.cpu - a.cpu, now.mallocs - a.mallocs, now.allocated - a.allocated, now.gcPause - a.gcPause}
}

func (a *procSnapshot) add(d procSnapshot) {
	a.cpu += d.cpu
	a.mallocs += d.mallocs
	a.allocated += d.allocated
	a.gcPause += d.gcPause
}

// perOp emits proc.* for a spent amount, per operation (and GC pause per
// round). Client and cluster share the process, so this is the whole cost
// of a request.
func (a procSnapshot) perOp(m metricSet, ops, rounds float64) {
	m.put("proc.cpu_us_per_req", us(a.cpu.Nanoseconds())/ops)
	m.put("proc.allocs_per_req", float64(a.mallocs)/ops)
	m.put("proc.alloc_bytes_per_req", float64(a.allocated)/ops)
	m.put("proc.gc_pause_ms", ms(a.gcPause.Nanoseconds())/rounds)
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.Sys) / (1 << 20)
}
