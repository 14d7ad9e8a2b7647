package netnode

import (
	"slices"
	"time"

	"drp/internal/metrics"
)

// nodeMetrics caches the instrument handles the nodes of a cluster record
// into: one set per cluster, in its settings, so the drp_net_* families
// aggregate across sites (per-site series would multiply cardinality for
// no operational value on a single host).
type nodeMetrics struct {
	reg *metrics.Registry

	readSeconds   *metrics.Histogram
	writeSeconds  *metrics.Histogram
	readsLocal    *metrics.Counter
	readsRemote   *metrics.Counter
	writesPrimary *metrics.Counter
	writesRemote  *metrics.Counter
	ntc           [len(ntcTerms)]*metrics.Counter
	failovers     *metrics.Counter
	dials         *metrics.Counter
}

// ntcTerms are drp_net_ntc_total's term labels, indexed by the term
// constants. They partition the ledger the sites keep (Store.AddNTC,
// summed by Cluster.TotalNTC): every cost a node adds to its ledger it
// records under exactly one term, so the terms sum to the ledger.
var ntcTerms = [...]string{"read", "read_failover", "write", "write_flush", "reconcile"}

const (
	termRead = iota
	termReadFailover
	termWrite
	termWriteFlush
	termReconcile
)

func newNodeMetrics(reg *metrics.Registry) *nodeMetrics {
	latency := metrics.LatencyBuckets()
	nm := &nodeMetrics{
		reg:           reg,
		readSeconds:   reg.Histogram("drp_net_request_seconds", "Client-observed request latency over the wire.", latency, metrics.Labels{"op": "read"}),
		writeSeconds:  reg.Histogram("drp_net_request_seconds", "Client-observed request latency over the wire.", latency, metrics.Labels{"op": "write"}),
		readsLocal:    reg.Counter("drp_net_replica_reads_total", "Reads by serving replica location.", metrics.Labels{"source": "local"}),
		readsRemote:   reg.Counter("drp_net_replica_reads_total", "Reads by serving replica location.", metrics.Labels{"source": "remote"}),
		writesPrimary: reg.Counter("drp_net_writes_total", "Writes by the writer's role for the object.", metrics.Labels{"role": "primary"}),
		writesRemote:  reg.Counter("drp_net_writes_total", "Writes by the writer's role for the object.", metrics.Labels{"role": "remote"}),
		failovers:     reg.Counter("drp_net_read_failovers_total", "Reads served by a farther replica after the nearest was unreachable.", nil),
		dials:         reg.Counter("drp_net_dials_total", "Connections nodes accepted: every dial by a peer, the coordinator or a client. Link reuse is 1 - dials/messages.", nil),
	}
	for t, term := range ntcTerms {
		nm.ntc[t] = reg.Counter("drp_net_ntc_total", "Transfer cost the sites' ledgers accounted, by term; the terms sum to the ledger.", metrics.Labels{"term": term})
	}
	return nm
}

// wireOps are the protocol's ops, and so the only values the served-message
// counter's op label takes from the wire.
var wireOps = []string{"read", "update", "sync", "place", "drop", "replicas", "primary", "reconcile"}

// message op → served-message counter; get-or-create per message is one
// mutex-guarded map lookup, noise next to a loopback round trip. The op
// string is outside input: anything that is not a protocol op counts under
// one "unknown" series, so a peer cannot grow the registry.
func (nm *nodeMetrics) served(op string) {
	if !slices.Contains(wireOps, op) {
		op = "unknown"
	}
	nm.reg.Counter("drp_net_messages_total", "Wire protocol messages served, by op.", metrics.Labels{"op": op}).Inc()
}

// retry counts one transport-level retry of an outbound call, by op.
func (nm *nodeMetrics) retry(op string) {
	nm.reg.Counter("drp_net_retries_total", "Transport-level retries of outbound calls, by op.", metrics.Labels{"op": op}).Inc()
}

// timeout counts one per-request deadline miss, by op.
func (nm *nodeMetrics) timeout(op string) {
	nm.reg.Counter("drp_net_request_timeouts_total", "Outbound calls that missed their per-request deadline, by op.", metrics.Labels{"op": op}).Inc()
}

// degraded counts one degraded-path outcome: a read with no live replica,
// a write queued behind an unreachable primary, or a partial broadcast.
func (nm *nodeMetrics) degraded(kind string) {
	nm.reg.Counter("drp_net_degraded_total", "Requests that left the happy path, by outcome.", metrics.Labels{"kind": kind}).Inc()
}

// flushed records one queued write replayed successfully.
func (nm *nodeMetrics) flushed(cost int64) {
	nm.degraded("write_flushed")
	nm.ntc[termWriteFlush].Add(cost)
}

// RegisterMetricFamilies pre-creates the drp_net_* families in reg at zero,
// for endpoints that must expose the full surface before any traffic.
func RegisterMetricFamilies(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	nm := newNodeMetrics(reg)
	for _, op := range wireOps {
		nm.reg.Counter("drp_net_messages_total", "Wire protocol messages served, by op.", metrics.Labels{"op": op})
	}
	for _, op := range []string{"read", "update", "sync"} {
		nm.reg.Counter("drp_net_retries_total", "Transport-level retries of outbound calls, by op.", metrics.Labels{"op": op})
		nm.reg.Counter("drp_net_request_timeouts_total", "Outbound calls that missed their per-request deadline, by op.", metrics.Labels{"op": op})
	}
	for _, kind := range []string{"read_failed", "write_queued", "write_flushed", "broadcast_partial"} {
		nm.reg.Counter("drp_net_degraded_total", "Requests that left the happy path, by outcome.", metrics.Labels{"kind": kind})
	}
}

// read records a served read: a remote one's cost goes to the read term,
// or, when a farther replica served it after the nearest was unreachable,
// to read_failover.
func (nm *nodeMetrics) read(local, failover bool, cost int64, elapsed time.Duration) {
	if local {
		nm.readsLocal.Inc()
	} else {
		nm.readsRemote.Inc()
	}
	term := termRead
	if failover {
		nm.failovers.Inc()
		term = termReadFailover
	}
	nm.ntc[term].Add(cost)
	nm.readSeconds.Observe(elapsed.Seconds())
}

func (nm *nodeMetrics) write(primary bool, cost int64, elapsed time.Duration) {
	if primary {
		nm.writesPrimary.Inc()
	} else {
		nm.writesRemote.Inc()
	}
	nm.ntc[termWrite].Add(cost)
	nm.writeSeconds.Observe(elapsed.Seconds())
}

// EnableMetrics attaches reg to the cluster, and so to every node it has
// or boots later: client-side Read/Write latency histograms, replica-hit
// and NTC counters, and server-side message counters. Call before driving
// traffic; nil detaches.
func (c *Cluster) EnableMetrics(reg *metrics.Registry) {
	var nm *nodeMetrics
	if reg != nil {
		nm = newNodeMetrics(reg)
	}
	c.cfg.edit(func(s *settings) { s.metrics = nm })
}
