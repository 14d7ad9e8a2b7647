// Package netnode runs the paper's replication policy over real TCP
// sockets: every site is a server holding object replicas, reads are
// forwarded to the requester's nearest replica, writes ship to the primary
// copy which broadcasts the new version to the other replicas, and a
// coordinator (the paper's monitor site) migrates the cluster between
// placements by diffing them into copy, promote and drop steps.
//
// Object payloads are not materialised — a transfer of object k between
// sites i and j is accounted as o_k·C(i,j) transfer-cost units, exactly as
// the cost model counts it — but every hop is a real network round trip on
// the loopback interface, so the protocol, the per-site state machines and
// their locking are exercised for real. With a full measurement period of
// traffic the cluster's accounted NTC equals eq. 4's D exactly; the tests
// assert it.
//
// Every call runs under one settings record per cluster — the peer
// address table, the gate, the attempt count, the per-attempt deadline,
// the metrics and the tracer — which the coordinator and every node load
// per request; a node keeps no copy, so one booted later (a joiner, a
// rejoiner, a restarted site) cannot miss a setting.
//
// The serving path tolerates faults. Every outbound call travels on a
// persistent link to the peer (link.go), passes an injectable per-attempt
// gate first, asked with both endpoints' sites (see drp/internal/fault),
// and runs under a per-request deadline with capped, jittered exponential
// backoff. A read walks the object's replica set in cost order
// (core.RankReplicas), so it lands on the nearest live replica exactly as
// eq. 4's min C(i,j) would with the dead sites excluded. Writes degrade
// instead of failing: an unreachable primary queues the write locally
// (flushed with FlushPending), and a replica a broadcast misses stays
// behind its primary's version until the coordinator names it in a
// "reconcile" op.
//
// Site state lives in a drp/internal/store.Store — in-memory by default,
// or backed by a write-ahead log and snapshots when the node is opened on
// a data directory (listenStore / StartDurable). In durable mode every
// state change is appended to the log before the request is acknowledged,
// so a node killed at any instant restarts from its directory (open →
// replay → serve) with exactly the versions, queued writes and accounted
// NTC it had acknowledged.
package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"drp/internal/core"
	"drp/internal/spans"
	"drp/internal/store"
	"drp/internal/xrand"
)

// message is the wire format: one JSON object per line. Trace and Span
// carry the caller's trace context (the trace ID and the exact rpc
// attempt span that sent this message), so server-side spans stitch
// into the caller's tree; both are empty — and absent from the wire —
// when the request is untraced or unsampled. A batch message carries
// coordinator records in Batch and nothing else.
type message struct {
	Op      string    `json:"op"`
	Object  int       `json:"obj"`
	From    int       `json:"from,omitempty"`
	Site    int       `json:"site,omitempty"`
	Sites   []int     `json:"sites,omitempty"`
	Version int64     `json:"version,omitempty"`
	Batch   []message `json:"batch,omitempty"`
	Trace   string    `json:"trace,omitempty"`
	Span    string    `json:"span,omitempty"`
}

// reply is the wire response. Stale lists the sites a reconcile could not
// reach. Applied counts the records of a batch the site applied, all of
// them or those before the one it rejected.
type reply struct {
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
	Code    string `json:"code,omitempty"`
	Cost    int64  `json:"cost,omitempty"`
	Holds   bool   `json:"holds,omitempty"`
	Version int64  `json:"version,omitempty"`
	Stale   []int  `json:"stale,omitempty"`
	Applied int    `json:"applied,omitempty"`
}

// opBatch is the coordinator's one command: a list of place, primary,
// replicas and drop records that a site applies in order.
const opBatch = "batch"

// Typed protocol rejection codes carried in reply.Code, so clients can
// distinguish coordination bugs from transport faults without parsing
// error strings.
const (
	codeBadOp      = "bad_op"
	codeBadJSON    = "bad_json"
	codeOversized  = "oversized"
	codeBadObject  = "bad_object"
	codeBadSite    = "bad_site"
	codeNotPrimary = "not_primary"
	codeNotHolder  = "not_holder"
	codeStorage    = "storage"
)

// maxLineBytes caps one wire request line; longer lines are rejected with
// codeOversized and the connection is closed (the stream can no longer be
// trusted to be framed).
const maxLineBytes = 1 << 20

// defaultReplyTimeout bounds reply writes when no per-request timeout is
// configured, so a client that stops reading cannot pin a handler
// goroutine (and therefore Close) forever.
const defaultReplyTimeout = 5 * time.Second

// errOversized is returned by lineReader.next when the cap is exceeded.
var errOversized = errors.New("netnode: request line exceeds limit")

// replyError is a protocol-level rejection from a peer: the transport
// worked, but the peer refused the operation. Protocol rejections are
// never retried or failed over — they indicate a coordination bug, not a
// dead site.
type replyError struct {
	Code string
	Msg  string
}

func (e *replyError) Error() string {
	if e.Code == "" {
		return "netnode: peer rejected request: " + e.Msg
	}
	return fmt.Sprintf("netnode: peer rejected request (%s): %s", e.Code, e.Msg)
}

// Sentinel outcomes of the degraded serving paths.
var (
	// ErrNoReplica reports a read that found no reachable replica.
	ErrNoReplica = errors.New("netnode: no live replica")
	// ErrWriteQueued reports a write whose primary was unreachable; the
	// write is queued locally and will be retried by FlushPending.
	ErrWriteQueued = errors.New("netnode: write queued, primary unreachable")
)

// Node is one site: a TCP server plus the site-local replication state the
// paper prescribes — its replica holdings and, per object, the current
// primary (where writes ship) and the replica set R_k: reads rank R_k to
// find SN_k(i), and at the primary writes broadcast over it. The state
// itself lives in a store.Store: memory-backed by Listen, WAL-backed by
// listenStore.
type Node struct {
	p    *core.Problem
	site int
	ln   net.Listener
	st   *store.Store

	cfg   *config   // the cluster's settings, shared with its other nodes
	links transport // persistent links to the peers

	mu    sync.Mutex            // guards conns
	conns map[net.Conn]struct{} // accepted connections, for shutdown

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// primaries returns the primary site of every object, the store's
// bootstrap parameter.
func primaries(p *core.Problem) []int {
	out := make([]int, p.Objects())
	for k := range out {
		out[k] = p.Primary(k)
	}
	return out
}

// listenStore starts a node whose state lives in st — typically a durable
// store opened (and therefore replayed) from the site's data directory —
// and whose calls run under cfg. The lifecycle is open → replay → serve:
// by the time the listener accepts its first connection the state is
// exactly what the log prescribes.
func listenStore(p *core.Problem, site int, addr string, st *store.Store, cfg *config) (*Node, error) {
	if site < 0 || site >= p.Sites() {
		return nil, fmt.Errorf("netnode: site %d out of range", site)
	}
	if st == nil {
		return nil, errors.New("netnode: nil store")
	}
	if st.Site() != site || st.Objects() != p.Objects() {
		return nil, fmt.Errorf("netnode: store is for site %d with %d objects, node wants site %d with %d",
			st.Site(), st.Objects(), site, p.Objects())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netnode: listen: %w", err)
	}
	n := &Node{
		p:      p,
		site:   site,
		ln:     ln,
		st:     st,
		cfg:    cfg,
		links:  transport{rng: xrand.New(uint64(site) + 1)},
		closed: make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Store returns the node's state store.
func (n *Node) Store() *store.Store { return n.st }

// SetDialer installs d as the gate of every outbound attempt from the
// node's site, in place of the cluster's, until Cluster.SetCommandDialer
// clears it; nil clears it now. The gate is the site's, held in the
// cluster's settings, not the node's: the node a RestartNode or a rejoin
// boots for the site runs under it, and setting it through the handle of
// a killed or departed node still sets the site's. SetDialer and
// SetCommandDialer keep their names while bench/ calls them; ROADMAP item
// 1(d) renames both.
func (n *Node) SetDialer(d Dialer) {
	n.cfg.edit(func(s *settings) {
		gates := make([]Dialer, n.p.Sites())
		copy(gates, s.siteGate)
		gates[n.site] = d
		s.siteGate = gates
	})
}

// Version returns the local version of object k (0 if not held). Versions
// count the writes the primary has serialised; the primary-copy protocol
// guarantees replicas converge to the primary's version once broadcasts
// complete (or, after a partial broadcast, once reconciliation runs).
func (n *Node) Version(k int) int64 { return n.st.Version(k) }

// NTC returns the transfer cost accounted to this node so far.
func (n *Node) NTC() int64 { return n.st.NTC() }

// Holds reports whether the node currently stores object k.
func (n *Node) Holds(k int) bool { return n.st.Holds(k) }

// pendingWrites returns the number of writes queued locally because the
// primary was unreachable when they were issued.
func (n *Node) pendingWrites() int { return n.st.TotalPending() }

// close shuts the node down — its links, its listener and the connections
// it accepted — waits for in-flight handlers and closes the store
// (flushing its log). Close is idempotent: concurrent or repeated calls
// all return the first outcome.
func (n *Node) close() error { return n.shutdown(n.st.Close) }

// Kill crash-stops the node: it stops serving like Close, but the store's
// log is abandoned without a flush or snapshot — the SIGKILL-equivalent
// stop. A node restarted from the same data directory recovers purely by
// replay. Kill and Close share the once-guard, so either may follow the
// other harmlessly.
func (n *Node) Kill() error { return n.shutdown(n.st.Crash) }

// shutdown stops serving and then stops the store with stop. Peers keep
// their links to this node open between requests, so the serve loops would
// block in their next read forever: an expired read deadline wakes the
// idle ones, while a handler in mid-request still writes its reply before
// its loop meets the same deadline.
func (n *Node) shutdown(stop func() error) error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.links.close()
		err := n.ln.Close()
		n.mu.Lock()
		for conn := range n.conns {
			_ = conn.SetReadDeadline(time.Now())
		}
		n.mu.Unlock()
		n.wg.Wait()
		if serr := stop(); err == nil {
			err = serr
		}
		n.closeErr = err
	})
	return n.closeErr
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				if errors.Is(err, net.ErrClosed) {
					return
				}
				// Transient accept failure: back off briefly instead of
				// spinning the CPU on a hot error.
				time.Sleep(time.Millisecond)
				continue
			}
		}
		if !n.track(conn) {
			conn.Close()
			continue
		}
		if nm := n.cfg.load().metrics; nm != nil {
			nm.dials.Inc()
		}
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

// track registers an accepted connection with the node's shutdown and
// reserves its serve goroutine; false means shutdown has already begun.
func (n *Node) track(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.closed:
		return false
	default:
	}
	if n.conns == nil {
		n.conns = make(map[net.Conn]struct{})
	}
	n.conns[conn] = struct{}{}
	n.wg.Add(1)
	return true
}

// replyTimeout bounds one reply write: the configured request timeout, or
// a conservative default so no reply write can stall unboundedly.
func (n *Node) replyTimeout() time.Duration {
	if d := n.cfg.load().timeout; d > 0 {
		return d
	}
	return defaultReplyTimeout
}

// sendReply encodes resp as a line into buf and writes it under a write
// deadline, returning buf for the next reply. Error replies and normal
// replies get the same treatment: a stalled client makes the write miss
// its deadline and the connection dies, instead of pinning the handler
// goroutine past Close. The deadline is left set: only sendReply writes
// on the connection, and it sets a fresh one before every reply.
func (n *Node) sendReply(conn net.Conn, buf []byte, resp *reply) ([]byte, error) {
	buf = append(appendReply(buf[:0], resp), '\n')
	if d := n.replyTimeout(); d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
	}
	_, err := conn.Write(buf)
	return buf, err
}

// serve handles one connection: a sequence of JSON-line requests, one
// reply each, for as long as the peer keeps its link open. Framing
// violations (oversized or malformed lines) get a typed error reply and
// close the connection, since the stream can no longer be trusted.
func (n *Node) serve(conn net.Conn) {
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		conn.Close()
	}()
	in := lineReader{r: bufio.NewReaderSize(conn, linkBufBytes)}
	var out []byte // the reply line, reused
	var msg message
	var resp reply
	for {
		line, err := in.next(maxLineBytes)
		if err == errOversized {
			resp = reply{Code: codeOversized, Err: "request line exceeds limit"}
			_, _ = n.sendReply(conn, out, &resp)
			return
		}
		if err != nil {
			return
		}
		if err := decodeMessage(line, &msg); err != nil {
			resp = reply{Code: codeBadJSON, Err: fmt.Sprintf("malformed request: %v", err)}
			_, _ = n.sendReply(conn, out, &resp)
			return
		}
		resp = n.handle(msg)
		if out, err = n.sendReply(conn, out, &resp); err != nil {
			return
		}
	}
}

// storageReply converts a store append failure into a typed rejection: the
// mutation was NOT acknowledged, because it never reached the log.
func storageReply(err error) reply {
	return reply{Code: codeStorage, Err: fmt.Sprintf("storage: %v", err)}
}

// handle wraps the op dispatch in a server-side span when the message
// carries wire trace context and this node has a tracer attached; the
// span nests under the caller's exact rpc attempt span.
func (n *Node) handle(msg message) reply {
	s := n.cfg.load()
	if s.metrics != nil {
		if msg.Op == opBatch {
			for _, r := range msg.Batch {
				s.metrics.served(r.Op)
			}
		} else {
			s.metrics.served(msg.Op)
		}
	}
	var sv *spans.Span
	if msg.Trace != "" { // an untraced request does not pay for the name
		sv = s.tracer.StartRemote(msg.Trace, msg.Span, "serve."+msg.Op)
	}
	sv.SetSite(n.site)
	var resp reply
	if msg.Op == opBatch {
		resp = n.serveBatch(msg.Batch)
	} else {
		sv.SetObject(msg.Object)
		resp = n.serveOp(s, msg, sv)
	}
	if !resp.OK {
		sv.SetErrText(resp.Err)
	}
	sv.Finish()
	return resp
}

// serveOp dispatches one request under settings s. sv is the server-side
// span (nil when the request is untraced); ops that fan out — update's
// broadcast, reconcile's re-syncs — hang their transfer spans under it.
func (n *Node) serveOp(s *settings, msg message, sv *spans.Span) reply {
	if msg.Object < 0 || msg.Object >= n.p.Objects() {
		return reply{Code: codeBadObject, Err: fmt.Sprintf("object %d out of range", msg.Object)}
	}
	switch msg.Op {
	case "read":
		// A remote site reads from us; we must hold a replica. The reply
		// carries the replica's version so staleness is observable.
		holds, version := n.st.Replica(msg.Object)
		if !holds {
			return reply{Code: codeNotHolder, Err: fmt.Sprintf("site %d does not hold object %d", n.site, msg.Object)}
		}
		return reply{OK: true, Holds: true, Version: version}

	case "update":
		// A writer ships a new version to us — the primary — and we
		// broadcast it to every other replicator. An unreachable
		// replicator stays behind instead of failing the write. The
		// version stamp hits the log before anything is acknowledged or
		// broadcast.
		if n.st.PrimaryOf(msg.Object) != n.site {
			return reply{Code: codeNotPrimary, Err: fmt.Sprintf("site %d is not the primary of object %d", n.site, msg.Object)}
		}
		version, cost, err := n.applyWrite(s, msg.Object, msg.From, sv)
		switch {
		case err != nil && version == 0:
			return storageReply(err)
		case err != nil:
			return errorReply(err)
		}
		return reply{OK: true, Cost: cost, Version: version}

	case "sync":
		// The primary pushes a fresh version of an object we replicate.
		held, _, err := n.st.AdoptVersion(msg.Object, msg.Version)
		if err != nil {
			return storageReply(err)
		}
		if !held {
			return reply{Code: codeNotHolder, Err: fmt.Sprintf("sync for object %d not replicated at site %d", msg.Object, n.site)}
		}
		return reply{OK: true}

	case "reconcile":
		// The coordinator asks the primary to re-sync the sites it names:
		// the holders behind the primary's version. Each successful
		// re-sync is a fresh transfer of the object, accounted in the
		// primary's ledger; sites still unreachable are reported back,
		// and a site that rejects the sync fails the op with its reply
		// code.
		if n.st.PrimaryOf(msg.Object) != n.site {
			return reply{Code: codeNotPrimary, Err: "reconcile sent to a non-primary"}
		}
		if code, err := checkSites(msg.Sites, n.p.Sites()); err != nil {
			return reply{Code: code, Err: err.Error()}
		}
		cost, missed, err := n.syncReplicas(s, msg.Object, n.site, msg.Sites, n.st.Version(msg.Object), sv)
		if err != nil {
			return errorReply(err)
		}
		if err := n.st.AddNTC(cost); err != nil {
			return storageReply(err)
		}
		if s.metrics != nil {
			s.metrics.ntc[termReconcile].Add(cost)
		}
		return reply{OK: true, Cost: cost, Stale: missed}

	default:
		return reply{Code: codeBadOp, Err: fmt.Sprintf("unknown op %q", msg.Op)}
	}
}

// serveBatch applies a coordinator batch. The whole list is checked
// first — an empty batch, a nested batch or any op but place, primary,
// replicas and drop is refused with nothing applied — then the records
// apply in order through one store batch, up to the first rejection, and
// the ones before it are one log commit. The reply says how many applied
// and carries the rejected record's code, or codeStorage when the commit
// failed.
func (n *Node) serveBatch(records []message) reply {
	if len(records) == 0 {
		return reply{Code: codeBadOp, Err: "empty batch"}
	}
	for i, r := range records {
		switch r.Op {
		case "place", "primary", "replicas", "drop":
		default:
			return reply{Code: codeBadOp, Err: fmt.Sprintf("batch record %d: op %q is not a coordinator record", i, r.Op)}
		}
	}
	var rejected reply
	applied, err := n.st.Batch(len(records), func(i int, tx store.Tx) bool {
		rejected = n.applyRecord(records[i], tx)
		return rejected.OK
	})
	if err != nil {
		resp := storageReply(err)
		resp.Applied = applied
		return resp
	}
	if applied < len(records) {
		r := records[applied]
		rejected.Applied = applied
		rejected.Err = fmt.Sprintf("batch record %d (%s object %d): %s", applied, r.Op, r.Object, rejected.Err)
		return rejected
	}
	return reply{OK: true, Applied: len(records)}
}

// applyRecord checks one coordinator record and applies it through tx,
// or rejects it with nothing applied.
func (n *Node) applyRecord(r message, tx store.Tx) reply {
	if r.Object < 0 || r.Object >= n.p.Objects() {
		return reply{Code: codeBadObject, Err: fmt.Sprintf("object %d out of range", r.Object)}
	}
	switch r.Op {
	case "place":
		tx.Place(r.Object, r.Version)

	case "drop":
		if tx.PrimaryOf(r.Object) == n.site {
			return reply{Code: codeNotPrimary, Err: "cannot drop a primary copy"}
		}
		tx.Drop(r.Object)

	case "replicas":
		// The coordinator pushes the object's replica set R_k to every
		// member, the primary last. Reads rank it; the primary broadcasts
		// over it.
		if code, err := checkSites(r.Sites, n.p.Sites()); err != nil {
			return reply{Code: code, Err: err.Error()}
		}
		tx.SetReplicas(r.Object, r.Sites)

	case "primary":
		// The coordinator promotes a new primary for the object; every
		// member learns the same routing record. Re-asserting the current
		// primary is a no-op, which makes plan resume idempotent.
		if r.Site < 0 || r.Site >= n.p.Sites() {
			return reply{Code: codeBadSite, Err: "primary site out of range"}
		}
		tx.SetPrimary(r.Object, r.Site)
	}
	return reply{OK: true}
}

// checkSites validates a site list from the wire.
func checkSites(sites []int, m int) (string, error) {
	for _, j := range sites {
		if j < 0 || j >= m {
			return codeBadSite, fmt.Errorf("site %d out of range", j)
		}
	}
	return "", nil
}

// errorReply converts a local error into a wire reply, preserving a typed
// code when the error is itself a protocol rejection.
func errorReply(err error) reply {
	var re *replyError
	if errors.As(err, &re) {
		return reply{Code: re.Code, Err: re.Msg}
	}
	return reply{Err: err.Error()}
}

// applyWrite is the primary's half of every write, local or shipped: the
// version stamp hits the log before anything is acknowledged or
// broadcast, then the new version goes to every replicator but the
// writer. A zero version with an error means the stamp itself failed —
// nothing was logged, nothing was sent.
func (n *Node) applyWrite(s *settings, obj, writer int, parent *spans.Span) (version, cost int64, err error) {
	ws := walSpan(parent, n.st, "bump_version")
	version, err = n.st.BumpVersion(obj)
	ws.SetErr(err)
	ws.Finish()
	if err != nil {
		return 0, 0, err
	}
	cost, err = n.broadcast(s, obj, writer, version, parent)
	return version, cost, err
}

// syncReplica pushes version of obj to the replica at site j under its
// own sync span and returns the transfer cost once the replica has
// acknowledged. The error is either a transport failure — the replica is,
// or stays, behind — or the peer's typed rejection (*replyError).
func (n *Node) syncReplica(s *settings, obj, j int, version int64, parent *spans.Span) (int64, error) {
	ss := parent.Child("sync")
	ss.SetSite(n.site)
	ss.SetPeer(j)
	ss.SetObject(obj)
	defer ss.Finish()
	resp, err := n.call(s, j, message{Op: "sync", Object: obj, Version: version}, ss)
	if err != nil {
		ss.SetErr(err)
		ss.SetVerdict("stale")
		return 0, err
	}
	if !resp.OK {
		ss.SetErrText(resp.Err)
		return 0, &replyError{Code: resp.Code, Msg: fmt.Sprintf("sync to site %d: %s", j, resp.Err)}
	}
	cost := n.p.Size(obj) * n.p.Cost(n.site, j)
	ss.SetNTC(cost)
	return cost, nil
}

// broadcast pushes the updated object to every site of its replica set
// except the writer and the primary itself. A replica that cannot be
// reached stays behind the primary's version, which is all the record
// Reconcile needs, instead of failing the write; the returned cost covers
// only the syncs that landed.
func (n *Node) broadcast(s *settings, obj, writer int, version int64, parent *spans.Span) (int64, error) {
	cost, missed, err := n.syncReplicas(s, obj, writer, n.st.Replicas(obj), version, parent)
	if s.metrics != nil && err == nil && len(missed) > 0 {
		s.metrics.degraded("broadcast_partial")
	}
	return cost, err
}

// syncReplicas pushes version of obj to every target but skip and this
// site. It returns the transfer cost of the syncs that landed and the
// targets missed: unreachable, or with no peer address, exactly like a
// dead site.
// A typed rejection from a live replica is a coordination bug (a replica
// set naming a non-holder) and fails the call.
func (n *Node) syncReplicas(s *settings, obj, skip int, targets []int, version int64, parent *spans.Span) (int64, []int, error) {
	var cost int64
	var missed []int
	for _, j := range targets {
		if j == skip || j == n.site {
			continue
		}
		if j < 0 || j >= len(s.peers) {
			missed = append(missed, j)
			continue
		}
		c, err := n.syncReplica(s, obj, j, version, parent)
		var rejected *replyError
		if errors.As(err, &rejected) {
			return 0, nil, err
		}
		if err != nil {
			missed = append(missed, j)
			continue
		}
		cost += c
	}
	return cost, missed, nil
}

// Read performs a client read from this node: served locally if a replica
// is held, otherwise fetched over TCP from the nearest replica of the
// object's replica set, failing over to the next-nearest live replica
// when sites are down. Returns the transfer cost incurred. ErrNoReplica
// reports that every replica was unreachable.
func (n *Node) Read(obj int) (cost int64, err error) {
	start := time.Now()
	if obj < 0 || obj >= n.p.Objects() {
		return 0, fmt.Errorf("netnode: object %d out of range", obj)
	}
	local := n.st.Holds(obj)
	s := n.cfg.load()
	peers, nm := s.peers, s.metrics
	root := s.tracer.Root("read")
	root.SetSite(n.site)
	root.SetObject(obj)
	defer func() {
		root.SetErr(err)
		root.Finish()
	}()
	if local {
		root.SetAttr("source", "local")
		if nm != nil {
			nm.read(true, false, 0, time.Since(start))
		}
		return 0, nil
	}
	// The replica set in core.RankReplicas order — ascending C(i,j), ties
	// to the lower site — puts SN_k(i) first. The site itself and sites
	// with no peer address (departed from the membership view) are
	// skipped, so the failover order over the survivors is deterministic.
	inView := func(j int) bool { return j != n.site && j < len(peers) && peers[j] != "" }
	var lastErr error
	var ranked [8]int // a replica set this small ranks without allocating
	for idx, j := range core.RankReplicas(ranked[:0], n.p, n.site, n.st.Replicas(obj), inView) {
		hop := root.Child("read.hop")
		hop.SetPeer(j)
		hop.SetHop(idx)
		resp, err := n.call(s, j, message{Op: "read", Object: obj}, hop)
		if err != nil {
			hop.SetErr(err)
			hop.Finish()
			lastErr = err
			continue
		}
		if !resp.OK {
			// A live peer refusing the read is a coordination bug (e.g. a
			// stale replica set naming a non-holder): fail loudly rather
			// than silently serving from elsewhere.
			hop.SetErrText(resp.Err)
			hop.Finish()
			return 0, &replyError{Code: resp.Code, Msg: resp.Err}
		}
		cost := n.p.Size(obj) * n.p.Cost(n.site, j)
		if err := n.st.AddNTC(cost); err != nil {
			hop.Finish()
			return 0, err
		}
		hop.SetNTC(cost)
		hop.Finish()
		if nm != nil {
			nm.read(false, idx > 0, cost, time.Since(start))
		}
		return cost, nil
	}
	if nm != nil {
		nm.degraded("read_failed")
	}
	if lastErr != nil {
		return 0, fmt.Errorf("%w for object %d: %v", ErrNoReplica, obj, lastErr)
	}
	return 0, fmt.Errorf("%w for object %d", ErrNoReplica, obj)
}

// Write performs a client write from this node: the new version ships to
// the primary, which broadcasts it to the other replicators (unreachable
// ones stay behind its version rather than failing the write).
// Returns the total transfer cost (shipping plus the successful part of
// the broadcast). When the primary itself is unreachable the write is
// queued locally — durably, in durable mode — and ErrWriteQueued is
// returned; FlushPending retries it.
func (n *Node) Write(obj int) (cost int64, err error) {
	start := time.Now()
	if obj < 0 || obj >= n.p.Objects() {
		return 0, fmt.Errorf("netnode: object %d out of range", obj)
	}
	s := n.cfg.load()
	nm := s.metrics
	sp := n.st.PrimaryOf(obj)
	root := s.tracer.Root("write")
	root.SetSite(n.site)
	root.SetObject(obj)
	root.SetPeer(sp)
	defer func() {
		root.SetErr(err)
		root.Finish()
	}()
	if sp == n.site {
		// Local primary: no shipping.
		if _, cost, err = n.applyWrite(s, obj, n.site, root); err != nil {
			return 0, err
		}
		if err := n.st.AddNTC(cost); err != nil {
			return 0, err
		}
	} else {
		if sp >= len(s.peers) {
			return 0, fmt.Errorf("netnode: no address for primary site %d", sp)
		}
		var reached bool
		if cost, reached, err = n.shipWrite(s, obj, sp, root); !reached {
			// Primary unreachable: queue-and-flag. The write is not lost —
			// it is logged before ErrWriteQueued is returned, and
			// FlushPending replays it once the primary is back.
			qs := root.Child("write.queue")
			ws := walSpan(qs, n.st, "queue")
			qerr := n.st.Queue(obj)
			ws.SetErr(qerr)
			ws.Finish()
			qs.SetErr(qerr)
			qs.Finish()
			if qerr != nil {
				return 0, qerr
			}
			if nm != nil {
				nm.degraded("write_queued")
			}
			root.SetVerdict("queued")
			return 0, fmt.Errorf("%w: object %d: %v", ErrWriteQueued, obj, err)
		}
		if err != nil {
			return 0, err
		}
	}
	if nm != nil {
		nm.write(sp == n.site, cost, time.Since(start))
	}
	return cost, nil
}

// shipWrite ships one write of obj to its primary sp under a write.ship
// span and, once the primary has serialised and broadcast it, adopts the
// new version locally (the broadcast skips the writer, so a writer that
// is itself a replicator catches up here) and accounts the cost: the
// shipping plus the part of the broadcast that landed. reached is false
// when the primary could not be reached — nothing happened and err is the
// transport failure; otherwise err is the primary's typed rejection or a
// local storage failure.
func (n *Node) shipWrite(s *settings, obj, sp int, root *spans.Span) (cost int64, reached bool, err error) {
	ship := root.Child("write.ship")
	ship.SetPeer(sp)
	resp, err := n.call(s, sp, message{Op: "update", Object: obj, From: n.site}, ship)
	if err != nil {
		ship.SetErr(err)
		ship.Finish()
		return 0, false, err
	}
	if !resp.OK {
		ship.SetErrText(resp.Err)
		ship.Finish()
		return 0, true, &replyError{Code: resp.Code, Msg: resp.Err}
	}
	shipping := n.p.Size(obj) * n.p.Cost(n.site, sp)
	ship.SetNTC(shipping)
	ship.Finish()
	if _, _, err := n.st.AdoptVersion(obj, resp.Version); err != nil {
		return 0, true, err
	}
	cost = shipping + resp.Cost
	return cost, true, n.st.AddNTC(cost)
}

// flushPending replays the writes queued while the primary was down, in
// object order, and returns the transfer cost incurred. Writes whose
// primary is still unreachable stay queued; the first such stall stops
// flushing that object and moves on to the next.
func (n *Node) flushPending() (int64, error) {
	objs := n.st.PendingObjects()
	s := n.cfg.load()
	sort.Ints(objs)
	var total int64
	for _, obj := range objs {
		sp := n.st.PrimaryOf(obj)
		if sp >= len(s.peers) {
			return total, fmt.Errorf("netnode: no address for primary site %d", sp)
		}
		for n.st.PendingCount(obj) > 0 {
			root := s.tracer.Root("write.flush")
			root.SetSite(n.site)
			root.SetObject(obj)
			root.SetPeer(sp)
			cost, reached, err := n.shipWrite(s, obj, sp, root)
			if err == nil {
				// The cost is in the ledger now, dequeued or not.
				total += cost
				if s.metrics != nil {
					s.metrics.flushed(cost)
				}
				err = n.st.Dequeue(obj)
			}
			root.SetErr(err)
			root.Finish()
			if !reached {
				break // still unreachable; keep the remainder queued
			}
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// call runs one outbound exchange with site under settings s: its
// address, the site's gate, the attempt count, the deadline and the
// metrics.
func (n *Node) call(s *settings, site int, msg message, parent *spans.Span) (reply, error) {
	return n.links.exchange(s, n.site, site, s.peers[site], msg, parent)
}
