package netnode

import (
	"drp/internal/spans"
	"drp/internal/store"
)

// setTracer attaches a tracer to this node: client requests issued here
// (Read, Write, FlushPending) mint root spans, outbound calls mint
// per-attempt rpc spans whose IDs ride the wire, and inbound traced
// requests mint serve spans stitched under the caller's attempt. A nil
// tracer disables tracing (the default).
func (n *Node) setTracer(tr *spans.Tracer) {
	n.configure(func(c *nodeConfig) { c.tracer = tr })
}

// EnableTracing attaches one shared tracer to every node and to the
// coordinator, so coordinator-driven operations (deploys, plan steps,
// reconciliation) trace alongside client requests and all span IDs are
// globally consistent. Like EnableMetrics, the attachment survives
// RestartNode and Join.
func (c *Cluster) EnableTracing(tr *spans.Tracer) {
	c.tracer = tr
	for _, n := range c.nodes {
		if n != nil {
			n.setTracer(tr)
		}
	}
}

// walSpan opens a wal.append child span when the store is durable —
// the point where the mutation is logged before acknowledgement. For
// memory stores (or untraced requests) it returns nil, so callers
// finish it unconditionally.
func walSpan(parent *spans.Span, st *store.Store, op string) *spans.Span {
	if parent == nil || !st.Durable() {
		return nil
	}
	ws := parent.Child("wal.append")
	ws.SetAttr("op", op)
	return ws
}
