package load

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"drp/internal/metrics"
	"drp/internal/netnode"
)

// Target is the system under load: per-request read/write entry points
// returning the transfer cost accounted to the request. Implementations
// must be safe for concurrent use — the worker pool calls them from many
// goroutines.
type Target interface {
	Read(site, obj int) (int64, error)
	Write(site, obj int) (int64, error)
}

// ClusterTarget drives a live netnode cluster: requests enter at their
// origin site's node exactly as a local client would.
type ClusterTarget struct{ C *netnode.Cluster }

// Read issues a client read at the origin site.
func (t ClusterTarget) Read(site, obj int) (int64, error) { return t.C.Node(site).Read(obj) }

// Write issues a client write at the origin site.
func (t ClusterTarget) Write(site, obj int) (int64, error) { return t.C.Node(site).Write(obj) }

// Options tune the runner. The zero value is usable.
type Options struct {
	// Workers caps in-flight requests (default 128). The pool exists so a
	// stalled system cannot exhaust goroutines; requests the pool cannot
	// start on time still count their queue delay, because latency is
	// measured from the schedule's intended send time.
	Workers int
}

// errSample caps how many distinct unexpected error strings a result keeps.
const errSample = 5

// Result is one run's measured outcome.
type Result struct {
	// ReadHist/WriteHist record successful request latencies in seconds
	// from the intended send time (coordinated-omission-safe).
	ReadHist, WriteHist *metrics.Histogram
	// ReadsOK/WritesOK count requests served (including degraded serves
	// like failover reads and partial-broadcast writes).
	ReadsOK, WritesOK int64
	// ReadsFailed counts reads with no reachable replica; WritesQueued
	// counts writes queued behind an unreachable primary. Both are
	// expected degraded outcomes under faults, not harness errors.
	ReadsFailed, WritesQueued int64
	// Unexplained counts errors outside the protocol's degraded outcomes;
	// ErrSamples holds the first few, for the report.
	Unexplained int64
	ErrSamples  []string
	// NTCRead/NTCWrite sum the transfer cost accounted to served requests.
	NTCRead, NTCWrite int64
	// Offered is the schedule's arrival rate over its span; Achieved is
	// completed requests over the measured wall time (arrival of the
	// first request to completion of the last).
	Offered, Achieved float64
	// Elapsed is the wall time from run start to the last completion.
	Elapsed time.Duration
	// Digest fingerprints the schedule that was driven.
	Digest string
}

// requests returns the total number of requests that completed (served
// or degraded — every scheduled request lands somewhere).
func (r *Result) requests() int64 {
	return r.ReadsOK + r.WritesOK + r.ReadsFailed + r.WritesQueued + r.Unexplained
}

// ntc returns the total transfer cost accounted to the run.
func (r *Result) ntc() int64 { return r.NTCRead + r.NTCWrite }

// worker-local tallies, merged after the pool drains.
type tally struct {
	readsOK, writesOK         int64
	readsFailed, writesQueued int64
	unexplained               int64
	errSamples                []string
	ntcRead, ntcWrite         int64
}

// Run drives the schedule against the target, open loop: every request
// fires at its intended send time regardless of how earlier requests
// are faring, and each latency is measured from that intended time. A
// system that stalls therefore shows the stall in its quantiles instead
// of silently shedding offered load — the coordinated-omission-safe
// discipline (Tene's "How NOT to Measure Latency").
func Run(target Target, sched *Schedule, opts Options) (*Result, error) {
	if target == nil {
		return nil, errors.New("load: nil target")
	}
	if sched == nil || len(sched.Requests) == 0 {
		return nil, errors.New("load: empty schedule")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 128
	}

	type timed struct {
		req      Request
		intended time.Time
	}
	// The queue is sized for the whole schedule so dispatch never blocks
	// on a slow system — blocking the dispatcher would turn the harness
	// closed-loop exactly when the measurement matters most.
	queue := make(chan timed, len(sched.Requests))
	// The workers observe latencies straight into the result's histograms
	// (they are concurrency-safe); everything else is tallied per worker.
	res := &Result{
		ReadHist:  new(metrics.Histogram),
		WriteHist: new(metrics.Histogram),
		Digest:    sched.Digest(),
	}
	tallies := make([]*tally, workers)
	var lastDone struct {
		sync.Mutex
		t time.Time
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tl := &tally{}
		tallies[w] = tl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range queue {
				var cost int64
				var err error
				if item.req.Write {
					cost, err = target.Write(item.req.Site, item.req.Obj)
				} else {
					cost, err = target.Read(item.req.Site, item.req.Obj)
				}
				done := time.Now()
				latency := done.Sub(item.intended).Seconds()
				switch {
				case err == nil:
					if item.req.Write {
						tl.writesOK++
						tl.ntcWrite += cost
						res.WriteHist.Observe(latency)
					} else {
						tl.readsOK++
						tl.ntcRead += cost
						res.ReadHist.Observe(latency)
					}
				case errors.Is(err, netnode.ErrNoReplica):
					tl.readsFailed++
				case errors.Is(err, netnode.ErrWriteQueued):
					tl.writesQueued++
				default:
					tl.unexplained++
					if len(tl.errSamples) < errSample {
						tl.errSamples = append(tl.errSamples, err.Error())
					}
				}
				lastDone.Lock()
				if done.After(lastDone.t) {
					lastDone.t = done
				}
				lastDone.Unlock()
			}
		}()
	}

	start := time.Now()
	for _, req := range sched.Requests {
		if d := time.Until(start.Add(req.At)); d > 0 {
			time.Sleep(d)
		}
		queue <- timed{req: req, intended: start.Add(req.At)}
	}
	close(queue)
	wg.Wait()

	for _, tl := range tallies {
		res.ReadsOK += tl.readsOK
		res.WritesOK += tl.writesOK
		res.ReadsFailed += tl.readsFailed
		res.WritesQueued += tl.writesQueued
		res.Unexplained += tl.unexplained
		res.NTCRead += tl.ntcRead
		res.NTCWrite += tl.ntcWrite
		for _, s := range tl.errSamples {
			if len(res.ErrSamples) < errSample {
				res.ErrSamples = append(res.ErrSamples, s)
			}
		}
	}
	res.Elapsed = lastDone.t.Sub(start)
	if res.Elapsed <= 0 {
		res.Elapsed = time.Since(start)
	}
	span := sched.duration()
	if span > 0 {
		res.Offered = float64(len(sched.Requests)) / span.Seconds()
	}
	if res.Elapsed > 0 {
		res.Achieved = float64(res.requests()) / res.Elapsed.Seconds()
	}
	return res, nil
}

// MetricsCheck cross-references a run's own accounting against the
// cluster's drp_net_* instruments: every request the harness issued must
// appear in the cluster's counters exactly once. Deltas are computed
// against a snapshot taken before the run, so deploy-time traffic (or an
// earlier run on the same registry) does not pollute the check.
type MetricsCheck struct {
	Reads        deltaCheck `json:"reads"`
	Writes       deltaCheck `json:"writes"`
	ReadsFailed  deltaCheck `json:"reads_failed"`
	WritesQueued deltaCheck `json:"writes_queued"`
	NTC          deltaCheck `json:"ntc"`
	Match        bool       `json:"match"`
}

type deltaCheck struct {
	Load    int64 `json:"load"`
	Cluster int64 `json:"cluster"`
}

// netCounters freezes the drp_net_* counters a load run moves.
type NetCounters struct {
	readsLocal, readsRemote   int64
	writesPrimary, writesRem  int64
	readFailed, writeQueued   int64
	ntcRead, ntcWrite, ntcTot int64
}

// CaptureNetCounters snapshots the cluster counters CrossCheck diffs.
// Call it immediately before Run.
func CaptureNetCounters(reg *metrics.Registry) NetCounters {
	c := func(name string, labels metrics.Labels) int64 {
		return reg.Counter(name, "", labels).Value()
	}
	nc := NetCounters{
		readsLocal:    c("drp_net_replica_reads_total", metrics.Labels{"source": "local"}),
		readsRemote:   c("drp_net_replica_reads_total", metrics.Labels{"source": "remote"}),
		writesPrimary: c("drp_net_writes_total", metrics.Labels{"role": "primary"}),
		writesRem:     c("drp_net_writes_total", metrics.Labels{"role": "remote"}),
		readFailed:    c("drp_net_degraded_total", metrics.Labels{"kind": "read_failed"}),
		writeQueued:   c("drp_net_degraded_total", metrics.Labels{"kind": "write_queued"}),
		ntcRead:       c("drp_net_ntc_total", metrics.Labels{"op": "read"}),
		ntcWrite:      c("drp_net_ntc_total", metrics.Labels{"op": "write"}),
	}
	nc.ntcTot = nc.ntcRead + nc.ntcWrite
	return nc
}

// CrossCheck diffs the cluster's counters against the before-run capture
// and compares the movement to the run's own tallies. Match is true only
// when every request and every NTC unit is accounted exactly once.
func CrossCheck(res *Result, reg *metrics.Registry, before NetCounters) MetricsCheck {
	after := CaptureNetCounters(reg)
	mc := MetricsCheck{
		Reads:        deltaCheck{Load: res.ReadsOK, Cluster: after.readsLocal + after.readsRemote - before.readsLocal - before.readsRemote},
		Writes:       deltaCheck{Load: res.WritesOK, Cluster: after.writesPrimary + after.writesRem - before.writesPrimary - before.writesRem},
		ReadsFailed:  deltaCheck{Load: res.ReadsFailed, Cluster: after.readFailed - before.readFailed},
		WritesQueued: deltaCheck{Load: res.WritesQueued, Cluster: after.writeQueued - before.writeQueued},
		NTC:          deltaCheck{Load: res.ntc(), Cluster: after.ntcTot - before.ntcTot},
	}
	mc.Match = mc.Reads.Load == mc.Reads.Cluster &&
		mc.Writes.Load == mc.Writes.Cluster &&
		mc.ReadsFailed.Load == mc.ReadsFailed.Cluster &&
		mc.WritesQueued.Load == mc.WritesQueued.Cluster &&
		mc.NTC.Load == mc.NTC.Cluster
	return mc
}

// Describe renders the mismatch (or match) for error messages.
func (mc MetricsCheck) Describe() string {
	return fmt.Sprintf("reads %d/%d writes %d/%d reads_failed %d/%d writes_queued %d/%d ntc %d/%d (load/cluster)",
		mc.Reads.Load, mc.Reads.Cluster,
		mc.Writes.Load, mc.Writes.Cluster,
		mc.ReadsFailed.Load, mc.ReadsFailed.Cluster,
		mc.WritesQueued.Load, mc.WritesQueued.Cluster,
		mc.NTC.Load, mc.NTC.Cluster)
}
