package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drp/internal/core"
	"drp/internal/load"
	"drp/internal/metrics"
	"drp/internal/netnode"
	"drp/internal/spans"
	"drp/internal/sra"
	"drp/internal/store"
)

// runMode selects how much of a workload runs.
type runMode int

const (
	modeE2E    runMode = iota // --trace 0: set-ups and plain rounds only
	modeLayers                // --trace 1: fewer plain rounds, then every layer probe
	modeFull                  // no --trace: fixed round counts, everything
)

type runOpts struct {
	mode    runMode
	seed    uint64
	seconds float64 // measuring time (driver modes)
	quick   bool    // test sizes
	workdir string  // scratch inside the checkout; removed at exit
	log     io.Writer
}

func (o *runOpts) logf(format string, args ...any) {
	fmt.Fprintf(o.log, format+"\n", args...)
}

// scale shrinks an iteration count for -quick runs.
func (o *runOpts) scale(n int) int {
	if o.quick {
		return max(n/100, 8)
	}
	return n
}

// bed is one booted cluster with its placement deployed.
type bed struct {
	w      *workloadSpec
	p      *core.Problem
	scheme *core.Scheme
	c      *netnode.Cluster
	root   string // data directory of a durable bed

	boot, deploy time.Duration
}

// durableOpts is durable_rw's store configuration. The WAL is fsynced every
// 16 appends and not on each one: the shared disk's flush latency drifts by
// ±30 % within minutes, and with a flush on every blocking step that drift,
// not the program, decided round_s (README, Noise). Appends under
// SyncAlways are timed on their own by storeProbes.
func durableOpts(reg *metrics.Registry) store.Options {
	return store.Options{Sync: store.SyncInterval, SyncEvery: 16, Metrics: reg}
}

// setupBed is what setup_s times: generate the instance, place, boot one
// node per site and deploy the placement.
func setupBed(w *workloadSpec, root string) (*bed, error) {
	p, err := instance(w)
	if err != nil {
		return nil, err
	}
	scheme := core.NewScheme(p)
	if w.PlaceSRA {
		scheme = sra.Run(p, sra.Options{}).Scheme
	}
	bootStart := time.Now()
	var c *netnode.Cluster
	if w.Durable {
		c, err = netnode.StartDurable(p, root, durableOpts(nil))
	} else {
		c, err = netnode.StartLocal(p)
	}
	if err != nil {
		return nil, err
	}
	deployStart := time.Now()
	if _, err := c.Deploy(scheme); err != nil {
		c.Close()
		return nil, err
	}
	end := time.Now()
	return &bed{w: w, p: p, scheme: scheme, c: c, root: root,
		boot: deployStart.Sub(bootStart), deploy: end.Sub(deployStart)}, nil
}

// clients is the closed loop's concurrency: the paper's requesters are
// applications at a site that wait for their reply.
func clients() int { return min(nproc(), 4) }

// roundStats is one closed-loop replay of the stream.
type roundStats struct {
	dur               time.Duration
	ntcRead, ntcWrite int64
	failed            int64
	clientNS          int64 // Σ client-measured request time
}

// closedRound replays st against t from `workers` clients, each sending
// its next request only when the previous one has returned. lat[i]
// receives request i's latency in ns. A request fails when it errors or
// when its accounted cost differs from the eq. 4 oracle.
func closedRound(t load.Target, st *stream, workers int, lat []int64) roundStats {
	var next atomic.Int64
	var mu sync.Mutex
	var rs roundStats
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local roundStats
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.reqs) {
					break
				}
				r := st.reqs[i]
				var cost int64
				var err error
				t0 := time.Now()
				if r.Write {
					cost, err = t.Write(r.Site, r.Obj)
				} else {
					cost, err = t.Read(r.Site, r.Obj)
				}
				d := time.Since(t0).Nanoseconds()
				lat[i] = d
				local.clientNS += d
				if err != nil || st.expect != nil && cost != st.expect[i] {
					local.failed++
				}
				if r.Write {
					local.ntcWrite += cost
				} else {
					local.ntcRead += cost
				}
			}
			mu.Lock()
			rs.ntcRead += local.ntcRead
			rs.ntcWrite += local.ntcWrite
			rs.failed += local.failed
			rs.clientNS += local.clientNS
			mu.Unlock()
		}()
	}
	wg.Wait()
	rs.dur = time.Since(start)
	return rs
}

// checkedRound runs one round against the bed and applies the NTC
// oracles: the tally equals the eq. 4 price of the stream and the ledger
// (Cluster.TotalNTC) moved by exactly that much.
func (b *bed) checkedRound(st *stream, lat []int64) (roundStats, error) {
	before := b.c.TotalNTC()
	rs := closedRound(load.ClusterTarget{C: b.c}, st, clients(), lat)
	tally := rs.ntcRead + rs.ntcWrite
	if rs.ntcRead != st.expectRead || rs.ntcWrite != st.expectWrt {
		return rs, fmt.Errorf("NTC oracle: tallied read/write %d/%d, eq. 4 prices the stream at %d/%d",
			rs.ntcRead, rs.ntcWrite, st.expectRead, st.expectWrt)
	}
	if delta := b.c.TotalNTC() - before; delta != tally {
		return rs, fmt.Errorf("NTC oracle: cluster ledger moved %d, clients tallied %d", delta, tally)
	}
	return rs, nil
}

// splitSorted separates the latencies of reqs[:len(lat)] by op and sorts
// each.
func splitSorted(reqs []load.Request, lat []int64) (reads, writes []int64) {
	for i, d := range lat {
		if reqs[i].Write {
			writes = append(writes, d)
		} else {
			reads = append(reads, d)
		}
	}
	sort.Slice(reads, func(a, b int) bool { return reads[a] < reads[b] })
	sort.Slice(writes, func(a, b int) bool { return writes[a] < writes[b] })
	return reads, writes
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// runDataPlane measures one of the three netnode workloads.
func runDataPlane(w *workloadSpec, o *runOpts) (*result, error) {
	k := w.K
	if o.quick {
		k = w.QuickK
	}
	p0, err := instance(w)
	if err != nil {
		return nil, err
	}
	st := genStream(w, p0, o.seed, k)
	res := &result{Workload: w.Name, Seed: o.seed, StreamDigest: st.digest, K: k, Metrics: metricSet{}}
	m := res.Metrics

	// Set-up, several times before the rounds and again between them: the
	// median is setup_s. A durable set-up gets a fresh directory each time.
	var bootMS, deployMS []float64
	setup := &setupTimer[*bed]{o: o, build: func() (*bed, error) {
		root := ""
		if w.Durable {
			root = filepath.Join(o.workdir, fmt.Sprintf("data-%d", len(bootMS)))
		}
		b, err := setupBed(w, root)
		if err != nil {
			return nil, err
		}
		bootMS = append(bootMS, ms(b.boot.Nanoseconds()))
		deployMS = append(deployMS, ms(b.deploy.Nanoseconds()))
		return b, nil
	}, discard: func(b *bed) { b.c.Close() }}
	b, err := setup.first()
	if err != nil {
		return nil, err
	}
	defer func() { b.c.Close() }()
	st.price(b.scheme)

	// Two warm-up rounds, discarded: every remote call dials, and the first
	// seconds of traffic from an idle machine fill the kernel's socket
	// tables and grow the heap to its working size.
	lat := make([]int64, k)
	for i := 0; i < 2; i++ {
		rs, err := b.checkedRound(st, lat)
		if err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		res.Attempted += int64(k)
		res.Failed += rs.failed
		if o.quick {
			break
		}
	}

	// Plain rounds: metrics registry and tracer off.
	pooledReads := load.NewHist()
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var proc procSnapshot // spent in the plain rounds, not in the set-ups between them
	for measured := time.Duration(0); !enoughRounds(o, w.Rounds, w.QuickR, len(series["round_s"]), measured); {
		before := procSnap()
		rs, err := b.checkedRound(st, lat)
		if err != nil {
			return nil, err
		}
		proc.add(before.since())
		measured += rs.dur
		res.Attempted += int64(k)
		res.Failed += rs.failed
		add("round_s", rs.dur.Seconds())
		o.logf("%s round %d: %.3fs", w.Name, len(series["round_s"]), rs.dur.Seconds())
		add("e2e.throughput_rps", float64(k)/rs.dur.Seconds())
		reads, writes := splitSorted(st.reqs, lat)
		for _, v := range reads {
			pooledReads.Record(v)
		}
		for _, c := range []struct {
			op     string
			sorted []int64
		}{{"read", reads}, {"write", writes}} {
			if len(c.sorted) == 0 {
				continue
			}
			add("e2e."+c.op+"_p50_ms", ms(percentile(c.sorted, 0.50)))
			add("e2e."+c.op+"_p90_ms", ms(percentile(c.sorted, 0.90)))
			add("e2e."+c.op+"_p99_ms", ms(percentile(c.sorted, 0.99)))
		}
		if err := setup.between(); err != nil {
			return nil, err
		}
	}
	res.Rounds = len(series["round_s"])
	for name, vals := range series {
		m.putRounds(name, vals)
	}
	m.putRounds("setup_s", setup.secs)
	m.putRounds("netnode.boot_ms", bootMS)
	m.putRounds("netnode.deploy_ms", deployMS)
	m.putRounds("op_p50_ms", series["e2e."+w.Foreground+"_p50_ms"])
	m.put("ntc_per_req", float64(st.expectRead+st.expectWrt)/float64(k))
	q1, med, q3 := quartiles(series["round_s"])
	m.put("client.round_iqr_frac", (q3-q1)/med)
	if pooledReads.Count() >= 10000 {
		m.put("client.read_p999_ms", ms(pooledReads.Quantile(0.999)))
	}
	proc.perOp(m, float64(res.Rounds*k), float64(res.Rounds))
	m.put("rss_mb", peakRSSMB()) // before the layer probes, whose span buffers are the benchmark's own

	if o.mode != modeE2E {
		if err := b.layers(st, lat, o, res, med); err != nil {
			return nil, err
		}
	}
	m.put("e2e.fail_frac", float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	return res, nil
}

// enoughRounds is the stop rule of the plain-round loop: a fixed count in
// full mode, the driver's measuring time otherwise.
func enoughRounds(o *runOpts, rounds, quickRounds, done int, measured time.Duration) bool {
	switch {
	case o.quick:
		return done >= quickRounds
	case o.mode == modeFull:
		return done >= rounds
	case o.mode == modeLayers:
		return done >= 2 && measured.Seconds() >= 0.35*o.seconds
	}
	return done >= 3 && measured.Seconds() >= o.seconds
}

// layers runs everything --trace 1 adds: probes of single layers, then one
// counted, one traced and one open-loop round. plainRound is the median
// plain round in seconds, the base of the overhead fractions.
func (b *bed) layers(st *stream, lat []int64, o *runOpts, res *result, plainRound float64) error {
	m := res.Metrics
	k := len(st.reqs)

	// The generator's own cost, against a target that does nothing.
	quiet := *st
	quiet.expect = nil
	noop := closedRound(noopTarget{}, &quiet, clients(), lat)
	loopNS := float64(noop.dur.Nanoseconds()) / float64(k)
	m.put("client.loop_overhead_ns", loopNS)
	if reqNS := plainRound * 1e9 * float64(clients()) / float64(k); b.w.Name != wMixedSRA && loopNS > 0.05*reqNS {
		return fmt.Errorf("generator overhead %.0f ns exceeds 5%% of the median request time %.0f ns: refusing to report", loopNS, reqNS)
	}

	if err := b.netnodeProbes(o, m); err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	netnode.RegisterMetricFamilies(reg)
	store.RegisterMetricFamilies(reg)
	if b.w.Durable {
		if err := b.recoverAndReopen(reg, m); err != nil {
			return err
		}
		if err := b.appendsPerOp(st, reg, m); err != nil {
			return err
		}
	}

	// Counted round: the metrics registry on, counters diffed around it.
	b.c.EnableMetrics(reg)
	netBefore := load.CaptureNetCounters(reg)
	before := countersOf(reg)
	rs, err := b.checkedRound(st, lat)
	if err != nil {
		return fmt.Errorf("counted round: %w", err)
	}
	b.c.EnableMetrics(nil)
	after := countersOf(reg)
	res.Attempted += int64(k)
	res.Failed += rs.failed
	tallies := &load.Result{ReadsOK: int64(st.reads), WritesOK: int64(st.writes), NTCRead: rs.ntcRead, NTCWrite: rs.ntcWrite}
	if mc := load.CrossCheck(tallies, reg, netBefore); !mc.Match {
		return fmt.Errorf("counted round: drp_net_* counters disagree with the tallies: %s", mc.Describe())
	}
	d := after.sub(before)
	if !b.w.Durable && d.appends != 0 {
		return fmt.Errorf("counted round: memory-store workload appended %d WAL records", d.appends)
	}
	if want := int64(st.remote(b.scheme)); d.remote != want {
		return fmt.Errorf("counted round: %d remote requests counted, the scheme implies %d", d.remote, want)
	}
	m.put("netnode.msgs_per_req", float64(d.msgs)/float64(k))
	m.put("netnode.remote_frac", float64(d.remote)/float64(k))
	if st.writes > 0 {
		m.put("netnode.syncs_per_write", float64(d.syncs)/float64(st.writes))
	}
	m.put("netnode.retries", float64(d.retries))
	m.put("netnode.timeouts", float64(d.timeouts))
	m.put("store.appends_per_req", float64(d.appends)/float64(k))
	m.put("store.fsyncs_per_req", float64(d.fsyncs)/float64(k))
	m.put("metrics.overhead_frac", rs.dur.Seconds()/plainRound-1)

	// Traced round: the existing tracer on, wall clock, spans kept in
	// memory and written out once the round is over.
	col := &spans.Collector{}
	tr := spans.New(col)
	tr.SetClock(spans.WallClock{})
	b.c.EnableTracing(tr)
	rs, err = b.checkedRound(st, lat)
	b.c.EnableTracing(nil)
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	res.Attempted += int64(k)
	res.Failed += rs.failed
	sps := col.Spans()
	if err := selfTimes(sps, st, rs.clientNS, m); err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	m.put("spans.overhead_frac", rs.dur.Seconds()/plainRound-1)
	encStart := time.Now()
	var buf bytes.Buffer
	if err := spans.Encode(&buf, sps); err != nil {
		return err
	}
	m.put("spans.encode_ns", float64(time.Since(encStart).Nanoseconds())/float64(len(sps)))
	if err := os.WriteFile(filepath.Join(o.workdir, "spans.jsonl"), buf.Bytes(), 0o644); err != nil {
		return err
	}

	or, err := b.openRound(st)
	if err != nil {
		return fmt.Errorf("open-loop round: %w", err)
	}
	res.Attempted += int64(or.n)
	res.Failed += or.failed
	or.emit(m, b.w.OpenRate)

	if b.w.Durable {
		if err := b.snapshots(m); err != nil {
			return err
		}
		flag, err := storeProbes(filepath.Join(o.workdir, "probe"), o, m)
		if err != nil {
			return err
		}
		res.Flags = append(res.Flags, flag...)
	}
	libraryProbes(b.p, o, m)
	return nil
}

// noopTarget costs nothing: what remains is the generator.
type noopTarget struct{}

func (noopTarget) Read(int, int) (int64, error)  { return 0, nil }
func (noopTarget) Write(int, int) (int64, error) { return 0, nil }

// counters is the slice of the registry the counted round diffs.
type counters struct {
	msgs, syncs, remote, retries, timeouts, appends, fsyncs int64
}

func (a counters) sub(b counters) counters {
	return counters{a.msgs - b.msgs, a.syncs - b.syncs, a.remote - b.remote, a.retries - b.retries,
		a.timeouts - b.timeouts, a.appends - b.appends, a.fsyncs - b.fsyncs}
}

func countersOf(reg *metrics.Registry) counters {
	snap := reg.Snapshot()
	get := func(name string, labels map[string]string) int64 {
		v, _ := snap.CounterValue(name, labels)
		return v
	}
	var c counters
	for _, op := range []string{"read", "update", "sync", "place", "drop", "version", "registry", "nearest", "replicas", "primary", "reconcile"} {
		c.msgs += get("drp_net_messages_total", map[string]string{"op": op})
	}
	for _, op := range []string{"read", "update", "sync"} {
		c.retries += get("drp_net_retries_total", map[string]string{"op": op})
		c.timeouts += get("drp_net_request_timeouts_total", map[string]string{"op": op})
	}
	c.syncs = get("drp_net_messages_total", map[string]string{"op": "sync"})
	c.remote = get("drp_net_replica_reads_total", map[string]string{"source": "remote"}) +
		get("drp_net_writes_total", map[string]string{"role": "remote"})
	c.appends = get("drp_store_appends_total", nil)
	c.fsyncs = get("drp_store_fsyncs_total", nil)
	return c
}

// recoverAndReopen is durable_rw's crash leg: kill every node, restart
// each from its directory and require byte-identical state per site. The
// cluster is then closed and reopened with a store-level registry, which
// the append and replay counts below need (store counters attach at open).
func (b *bed) recoverAndReopen(reg *metrics.Registry, m metricSet) error {
	sites := b.p.Sites()
	states := make([][]byte, sites)
	for i := 0; i < sites; i++ {
		states[i] = b.c.Node(i).Store().EncodeState()
	}
	start := time.Now()
	for i := 0; i < sites; i++ {
		if err := b.c.Node(i).Kill(); err != nil {
			return fmt.Errorf("kill site %d: %w", i, err)
		}
	}
	for i := 0; i < sites; i++ {
		if _, err := b.c.RestartNode(i); err != nil {
			return fmt.Errorf("restart site %d: %w", i, err)
		}
	}
	m.put("e2e.recover_s", time.Since(start).Seconds())
	for i := 0; i < sites; i++ {
		if !bytes.Equal(states[i], b.c.Node(i).Store().EncodeState()) {
			return fmt.Errorf("recovery oracle: site %d state differs after restart", i)
		}
	}
	b.c.Close()

	start = time.Now()
	c, err := netnode.StartDurable(b.p, b.root, durableOpts(reg))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	elapsed := time.Since(start)
	b.c = c
	if s := c.Scheme(); s == nil || !s.Equal(b.scheme) {
		return fmt.Errorf("recovery oracle: reopened cluster holds a different scheme")
	}
	for i := 0; i < sites; i++ {
		if !bytes.Equal(states[i], c.Node(i).Store().EncodeState()) {
			return fmt.Errorf("recovery oracle: site %d state differs after reopen", i)
		}
	}
	replayed := reg.Counter("drp_store_replay_records_total", "", nil).Value()
	if replayed == 0 {
		return fmt.Errorf("reopen replayed no records")
	}
	m.put("store.replay_us_per_record", us(elapsed.Nanoseconds())/float64(replayed))
	return nil
}

// appendsPerOp replays the stream's first reads and writes from a single
// client and counts WAL records per op: with one client there is no
// interleaving, so the counts repeat exactly.
func (b *bed) appendsPerOp(st *stream, reg *metrics.Registry, m metricSet) error {
	const want = 200
	appends := reg.Counter("drp_store_appends_total", "", nil)
	var n [2]int
	var got [2]int64
	for _, r := range st.reqs {
		op := 0
		if r.Write {
			op = 1
		}
		if n[op] >= want {
			continue
		}
		before := appends.Value()
		var err error
		if r.Write {
			_, err = b.c.Node(r.Site).Write(r.Obj)
		} else {
			_, err = b.c.Node(r.Site).Read(r.Obj)
		}
		if err != nil {
			return fmt.Errorf("appends-per-op probe: %w", err)
		}
		n[op]++
		got[op] += appends.Value() - before
	}
	if n[0] > 0 {
		m.put("store.appends_per_read", float64(got[0])/float64(n[0]))
	}
	if n[1] > 0 {
		m.put("store.appends_per_write", float64(got[1])/float64(n[1]))
	}
	return nil
}

// snapshots times one forced snapshot per site.
func (b *bed) snapshots(m metricSet) error {
	var each []float64
	for i := 0; i < b.p.Sites(); i++ {
		t0 := time.Now()
		if err := b.c.Node(i).Store().Snapshot(); err != nil {
			return fmt.Errorf("snapshot site %d: %w", i, err)
		}
		each = append(each, ms(time.Since(t0).Nanoseconds()))
	}
	m.put("store.snapshot_ms", median(each))
	return nil
}

// spanMetric maps the data plane's request-span names onto trace.* names.
// A name outside this table under a request root is vocabulary drift and
// fails the run.
var spanMetric = map[string]string{
	"read": "trace.read_self_us", "read.hop": "trace.read_hop_self_us",
	"rpc.read": "trace.rpc_read_self_us", "serve.read": "trace.serve_read_self_us",
	"write": "trace.write_self_us", "write.ship": "trace.write_ship_self_us",
	"rpc.update": "trace.rpc_update_self_us", "serve.update": "trace.serve_update_self_us",
	"sync": "trace.sync_self_us", "rpc.sync": "trace.rpc_sync_self_us",
	"serve.sync": "trace.serve_sync_self_us", "wal.append": "trace.wal_append_self_us",
}

// selfTimes turns the traced round's spans into mean self time per read
// (for spans under a read root) or per write (under a write root). A
// span's self time is its duration minus the part its children cover, so
// the self times of a request sum to its root span; that identity and the
// root-over-client coverage are checked here.
func selfTimes(sps []spans.Span, st *stream, clientNS int64, m metricSet) error {
	byID := make(map[string]int, len(sps))
	kids := make(map[string][]int, len(sps))
	for i := range sps {
		byID[sps[i].ID] = i
		if sps[i].Parent != "" {
			kids[sps[i].Parent] = append(kids[sps[i].Parent], i)
		}
	}
	self := map[string]int64{}
	var rootNS, selfNS int64
	roots := map[string]int{}
	for i := range sps {
		s := &sps[i]
		if _, ok := spanMetric[s.Name]; !ok {
			return fmt.Errorf("span %q is not in the benchmark's vocabulary", s.Name)
		}
		if s.Parent == "" {
			rootNS += s.Dur()
			roots[s.Name]++
		} else if _, ok := byID[s.Parent]; !ok {
			return fmt.Errorf("span %s (%s) has no parent in the round", s.ID, s.Name)
		}
		// Union of the children's intervals, clamped to the parent's.
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return sps[cs[a]].Start < sps[cs[b]].Start })
		var covered int64
		edge := s.Start
		for _, ci := range cs {
			from, to := max(sps[ci].Start, edge), min(sps[ci].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		d := s.Dur() - covered
		self[s.Name] += d
		selfNS += d
	}
	if roots["read"] != st.reads || roots["write"] != st.writes {
		return fmt.Errorf("root spans read/write %d/%d, stream has %d/%d", roots["read"], roots["write"], st.reads, st.writes)
	}
	if diff := float64(selfNS-rootNS) / float64(rootNS); diff > 0.01 || diff < -0.01 {
		return fmt.Errorf("self times sum to %d ns, root spans to %d ns", selfNS, rootNS)
	}
	for name, metricName := range spanMetric {
		ns, ok := self[name]
		if !ok {
			continue
		}
		per := st.writes
		switch name {
		case "read", "read.hop", "rpc.read", "serve.read":
			per = st.reads
		}
		m.put(metricName, us(ns)/float64(per))
	}
	m.put("spans.per_req", float64(len(sps))/float64(len(st.reqs)))
	m.put("spans.coverage", float64(rootNS)/float64(clientNS))
	return nil
}

// openResult is the fixed-rate open-loop round.
type openResult struct {
	n                  int
	failed             int64
	elapsed            time.Duration
	late, reads, wrote []int64 // ns, sorted
}

// openRound sends the stream's first requests at the workload's frozen
// rate whatever the replies do. The dispatcher sleeps until shortly
// before each intended send time and spins the rest, and records how late
// it still was; latency runs from the intended time, so a stall shows up
// in the requests queued behind it.
func (b *bed) openRound(st *stream) (*openResult, error) {
	n := min(len(st.reqs), int(b.w.OpenRate*2)) // at most two seconds of arrivals
	type job struct {
		i        int
		intended time.Time
	}
	// Sized for the whole round so a slow system never blocks the dispatcher.
	queue := make(chan job, n)
	lat := make([]int64, n)
	or := &openResult{n: n, late: make([]int64, n)}
	var failed atomic.Int64
	var wg sync.WaitGroup
	const workers = 32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				r := st.reqs[j.i]
				var cost int64
				var err error
				if r.Write {
					cost, err = b.c.Node(r.Site).Write(r.Obj)
				} else {
					cost, err = b.c.Node(r.Site).Read(r.Obj)
				}
				lat[j.i] = time.Since(j.intended).Nanoseconds()
				if err != nil || cost != st.expect[j.i] {
					failed.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		intended := start.Add(st.reqs[i].At)
		if d := time.Until(intended); d > 200*time.Microsecond {
			time.Sleep(d - 100*time.Microsecond)
		}
		for time.Now().Before(intended) {
		}
		or.late[i] = time.Since(intended).Nanoseconds()
		queue <- job{i, intended}
	}
	close(queue)
	wg.Wait()
	or.elapsed = time.Since(start)
	or.failed = failed.Load()
	or.reads, or.wrote = splitSorted(st.reqs, lat)
	sort.Slice(or.late, func(a, b int) bool { return or.late[a] < or.late[b] })
	return or, nil
}

func (or *openResult) emit(m metricSet, offered float64) {
	m.put("client.open_offered_rps", offered)
	m.put("client.open_achieved_frac", float64(or.n)/or.elapsed.Seconds()/offered)
	m.put("client.open_late_p50_us", us(percentile(or.late, 0.50)))
	m.put("client.open_late_p99_us", us(percentile(or.late, 0.99)))
	if len(or.reads) > 0 {
		m.put("client.open_read_p50_ms", ms(percentile(or.reads, 0.50)))
		m.put("client.open_read_p99_ms", ms(percentile(or.reads, 0.99)))
	}
	if len(or.wrote) > 0 {
		m.put("client.open_write_p50_ms", ms(percentile(or.wrote, 0.50)))
		m.put("client.open_write_p99_ms", ms(percentile(or.wrote, 0.99)))
	}
}
