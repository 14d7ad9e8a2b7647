package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"drp/internal/spans"
	"drp/internal/xrand"
)

// maxIdleLinks caps the idle links an owner keeps per peer address. A link
// carries one exchange at a time, so the cap is the number of concurrent
// callers per peer that reuse connections; callers beyond it still get a
// link of their own, which is closed after its exchange.
const maxIdleLinks = 4

// linkBufBytes sizes the read buffer of either end of a connection.
// Requests and replies are tens of bytes; lineReader gathers a longer
// line in a buffer of its own.
const linkBufBytes = 512

// Dialer is the per-attempt gate on outbound calls: it is asked, with the
// index of the site the call goes to, once before every attempt, before a
// link is picked or opened, and an error fails the attempt — even when a
// healthy pooled link to that site exists. It may sleep to model latency.
// drp/internal/fault installs one to inject crashes, blackholes, drops and
// delays without the node code changing. The name predates persistent
// links, when the seam was the dial itself.
type Dialer func(site int) error

// callOpts is what an owner's outbound calls run under.
type callOpts struct {
	gate     Dialer
	attempts int           // transport attempts per exchange; ≤ 1 tries once
	timeout  time.Duration // per attempt: the dial, then the round trip; 0 = none
}

// Retry backoff: retry r (0-based) sleeps retryBase·2^r, capped at
// retryCap, less up to retryJitter of it drawn from the owner's jitter
// source so synchronised callers fan out. Only transport failures (dial
// errors, IO errors, deadline misses) are retried; protocol rejections
// never are.
const (
	retryBase   = 200 * time.Microsecond
	retryCap    = time.Millisecond
	retryJitter = 0.5
)

// backoff returns the sleep before retry number retry (0-based). The rng,
// when non-nil, feeds only the jitter; accounting never observes it.
func backoff(retry int, rng *xrand.Source) time.Duration {
	d := retryBase
	for i := 0; i < retry && d < retryCap; i++ {
		d *= 2
	}
	d = min(d, retryCap)
	if rng != nil {
		d -= time.Duration(retryJitter * rng.Float64() * float64(d))
	}
	return d
}

// link is one persistent connection to a peer with the buffers that are
// reused across exchanges. It carries one exchange at a time: whoever took
// it from the pool owns it until it is put back or closed.
type link struct {
	addr  string
	gen   uint64 // the transport's generation when the link was opened
	conn  net.Conn
	in    lineReader
	out   []byte // the request line being sent
	timed bool   // conn carries a deadline from the previous exchange
}

// roundTrip sends one request and reads its reply under an optional
// deadline. Any error leaves the stream unframed: the caller closes the
// link.
func (l *link) roundTrip(msg *message, timeout time.Duration) (reply, error) {
	if timeout > 0 || l.timed {
		var deadline time.Time
		if timeout > 0 {
			deadline = time.Now().Add(timeout)
		}
		_ = l.conn.SetDeadline(deadline)
		l.timed = timeout > 0
	}
	l.out = append(appendMessage(l.out[:0], msg), '\n')
	if _, err := l.conn.Write(l.out); err != nil {
		return reply{}, fmt.Errorf("netnode: send: %w", err)
	}
	var resp reply
	line, err := l.in.next(maxLineBytes)
	if err == nil {
		err = decodeReply(line, &resp)
	}
	if err != nil {
		return reply{}, fmt.Errorf("netnode: recv: %w", err)
	}
	return resp, nil
}

// transport is the outbound half of a Node or of the Cluster coordinator:
// a pool of idle links per peer address and the jitter source for retry
// backoff. It belongs to its owner and dies with it — a link is never
// shared between owners, so a discarded cluster's links cannot be handed
// to the next cluster that is given the same port. The zero value (with
// rng set) is ready; nothing is dialled or allocated until the first call.
type transport struct {
	mu     sync.Mutex
	idle   map[string][]*link
	gen    uint64 // bumped by reset; a link from an older generation is not pooled
	closed bool
	rng    *xrand.Source // backoff jitter only; never touches accounting
}

// get hands out an idle link to addr, or opens one.
func (t *transport) get(addr string, timeout time.Duration) (*link, error) {
	t.mu.Lock()
	gen := t.gen
	if s := t.idle[addr]; len(s) > 0 {
		l := s[len(s)-1]
		s[len(s)-1] = nil
		t.idle[addr] = s[:len(s)-1]
		t.mu.Unlock()
		return l, nil
	}
	t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &link{addr: addr, gen: gen, conn: conn, in: lineReader{r: bufio.NewReaderSize(conn, linkBufBytes)}}, nil
}

// put returns a link whose exchange completed. It is closed instead when
// the owner has shut down, the peer table changed while it was out, or the
// peer already has its share of idle links.
func (t *transport) put(l *link) {
	t.mu.Lock()
	keep := !t.closed && l.gen == t.gen && len(t.idle[l.addr]) < maxIdleLinks
	if keep {
		if t.idle == nil {
			t.idle = make(map[string][]*link)
		}
		t.idle[l.addr] = append(t.idle[l.addr], l)
	}
	t.mu.Unlock()
	if !keep {
		l.conn.Close()
	}
}

// reset closes every idle link and bars the links now in flight from the
// pool. Owners call it whenever their peer table changes: a restarted
// peer may come back on the very port it had, so an address that is still
// in the table does not prove that a link to it is alive.
func (t *transport) reset() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.gen++
	t.mu.Unlock()
	for _, s := range idle {
		for _, l := range s {
			l.conn.Close()
		}
	}
}

// close is reset for good: links put back afterwards are closed.
func (t *transport) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.reset()
}

// backoff draws the sleep before retry number retry from the shared
// jitter source.
func (t *transport) backoff(retry int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return backoff(retry, t.rng)
}

// attempt is one try of one exchange: the gate's verdict, a link, one
// round trip. There is no transparent resend — "update" is not idempotent
// — so a pooled link that turns out dead is a failed attempt like any
// other and the owner's attempt count decides what happens next.
func (t *transport) attempt(o callOpts, site int, addr string, msg message) (reply, error) {
	var l *link
	var err error
	if o.gate != nil {
		err = o.gate(site)
	}
	if err == nil {
		l, err = t.get(addr, o.timeout)
	}
	if err != nil {
		// A verdict of the gate reads like the failed dial it once was.
		return reply{}, fmt.Errorf("netnode: dial %s: %w", addr, err)
	}
	resp, err := l.roundTrip(&msg, o.timeout)
	if err != nil || resp.Code == codeOversized || resp.Code == codeBadJSON {
		// A framing rejection is a reply, but the peer closes the stream
		// after sending it.
		l.conn.Close()
		return resp, err
	}
	t.put(l)
	return resp, nil
}

// exchange is the one RPC loop, shared by nodes and the coordinator: send
// one request to site, listening at addr, and read one reply, retrying
// transport failures up to the owner's attempts with the retry backoff.
// Protocol rejections are returned as replies, never retried. Each
// attempt gets its own rpc span under parent (labelled with peer when
// that is a site index), and the attempt's span IDs ride the wire so the
// peer's serve span nests under the exact attempt that reached it. nm,
// when non-nil, counts retries and deadline misses.
func (t *transport) exchange(o callOpts, nm *nodeMetrics, site int, addr string, peer int, msg message, parent *spans.Span) (reply, error) {
	var lastErr error
	for a := 0; a < max(o.attempts, 1); a++ {
		if a > 0 {
			if nm != nil {
				nm.retry(msg.Op)
			}
			time.Sleep(t.backoff(a - 1))
		}
		var att *spans.Span
		if parent != nil { // an untraced request does not pay for the name
			att = parent.Child("rpc." + msg.Op)
		}
		att.SetPeer(peer)
		att.SetAttempt(a)
		msg.Trace, msg.Span = att.Context()
		resp, err := t.attempt(o, site, addr, msg)
		if err == nil {
			att.Finish()
			return resp, nil
		}
		att.SetErr(err)
		att.Finish()
		if nm != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				nm.timeout(msg.Op)
			}
		}
		lastErr = err
	}
	return reply{}, lastErr
}
