package netnode

import (
	"drp/internal/spans"
	"drp/internal/store"
)

// EnableTracing attaches tr to the cluster: to the coordinator and to
// every node it has or boots later, so coordinator-driven operations
// (deploys, plan steps, reconciliation) trace alongside client requests
// and all span IDs are globally consistent. Client requests (Read, Write,
// FlushPending) mint root spans, outbound calls per-attempt rpc spans
// whose IDs ride the wire, and inbound traced requests serve spans
// stitched under the caller's attempt. A nil tracer disables tracing
// (the default).
func (c *Cluster) EnableTracing(tr *spans.Tracer) {
	c.cfg.edit(func(s *settings) { s.tracer = tr })
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
