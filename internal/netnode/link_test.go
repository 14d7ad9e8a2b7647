package netnode

// The transport: persistent links are reused, die with their owner or with
// the peer table they were opened under, and are never used again after an
// error; shutdown closes what peers left open.

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drp/internal/metrics"
	"drp/internal/sra"
	"drp/internal/store"
)

// callOnce performs one exchange on a link of its own.
func callOnce(addr string, msg message, timeout time.Duration) (reply, error) {
	var t transport
	defer t.close()
	return t.attempt(nil, timeout, -1, 0, addr, msg)
}

// idleLinks counts the links a transport holds idle.
func idleLinks(t *transport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, s := range t.idle {
		total += len(s)
	}
	return total
}

// accepted counts the connections a node is serving.
func accepted(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// within fails the test unless fn returns inside the limit.
func within(t *testing.T, limit time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s has not returned after %v", what, limit)
	}
}

// eventually polls cond; the server side of a link closes asynchronously.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// Regression: Close and Kill waited on serve goroutines that block in
// their next read with no deadline, so a client that merely held a
// connection open pinned shutdown forever.
func TestCloseWithIdleClient(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 61)
	for _, tc := range []struct {
		name string
		stop func(*Node) error
	}{{"Close", (*Node).close}, {"Kill", (*Node).Kill}} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Listen(p, 0, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer n.close()
			conn, err := net.Dial("tcp", n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// One served request proves the connection is past accept.
			if _, err := conn.Write([]byte(`{"op":"read","obj":0}` + "\n")); err != nil {
				t.Fatal(err)
			}
			if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
				t.Fatal(err)
			}
			within(t, 2*time.Second, tc.name+" with an idle client connected", func() {
				if err := tc.stop(n); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			})
			if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
				t.Fatal("the idle connection survived shutdown")
			}
		})
	}
}

// After traffic every pair of nodes has links open in both directions and
// the coordinator has one to every site; Cluster.Close must still return,
// and leave no link behind on either side.
func TestClusterCloseAfterTraffic(t *testing.T) {
	p := gen(t, 5, 6, 0.2, 0.6, 62)
	c, err := StartLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(sra.Run(p, sra.Options{}).Scheme); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	open := idleLinks(&c.links)
	for i := 0; i < p.Sites(); i++ {
		open += idleLinks(&c.Node(i).links)
	}
	if open == 0 {
		t.Fatal("traffic left no link open; the scenario is vacuous")
	}
	within(t, 5*time.Second, "Cluster.Close after traffic", c.Close)
	if got := idleLinks(&c.links); got != 0 {
		t.Errorf("coordinator kept %d links after Close", got)
	}
	for i := 0; i < p.Sites(); i++ {
		if got := idleLinks(&c.Node(i).links); got != 0 {
			t.Errorf("site %d kept %d links after Close", i, got)
		}
		if got := accepted(c.Node(i)); got != 0 {
			t.Errorf("site %d still serves %d connections after Close", i, got)
		}
	}
}

// (a) Once one pass of the measurement period has opened the links, any
// number of further remote reads and writes opens no connection at all.
func TestWarmLinksOpenNoConnections(t *testing.T) {
	p := gen(t, 5, 6, 0.2, 0.6, 63)
	c := startCluster(t, p)
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	RegisterMetricFamilies(reg)
	dials := reg.Counter("drp_net_dials_total", "", nil)
	if _, ok := reg.Snapshot().CounterValue("drp_net_dials_total", nil); !ok {
		t.Fatal("drp_net_dials_total is not pre-registered")
	}
	c.EnableMetrics(reg)
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	warm := dials.Value()
	if warm == 0 {
		t.Fatal("the warm pass opened no connection; the scenario is vacuous")
	}
	served := func() int64 {
		var total int64
		for _, op := range []string{"read", "update", "sync"} {
			total += reg.Counter("drp_net_messages_total", "", metrics.Labels{"op": op}).Value()
		}
		return total
	}
	before := served()
	for pass := 0; pass < 3; pass++ {
		total, err := c.DriveTraffic()
		if err != nil {
			t.Fatal(err)
		}
		if total != scheme.Cost() {
			t.Fatalf("pass %d cost %d != eq.4 D %d", pass, total, scheme.Cost())
		}
	}
	if msgs := served() - before; msgs == 0 {
		t.Fatal("the warm passes sent nothing over the wire")
	} else if got := dials.Value() - warm; got != 0 {
		t.Fatalf("%d messages on warm links opened %d new connections", msgs, got)
	}
}

// TestRestartKeepsGate: the gate set through the old node is the site's,
// so the node RestartNode boots runs under it, and the gate is asked with
// the node's own site and the peer site of each attempt.
func TestRestartKeepsGate(t *testing.T) {
	p := gen(t, 4, 5, 0.2, 0.6, 64)
	c := startDurable(t, p, t.TempDir(), testStoreOpts())
	const site = 1
	// Object k is held by its primary alone, which is not site.
	k := 0
	for p.Primary(k) == site {
		k++
	}
	var asked [][2]int
	c.Node(site).SetDialer(func(from, peer int) error {
		asked = append(asked, [2]int{from, peer})
		return errors.New("gate closed")
	})
	if _, err := c.RestartNode(site); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(site).Read(k); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("read of object %d through a closed gate: %v, want %v", k, err, ErrNoReplica)
	}
	if want := [][2]int{{site, p.Primary(k)}}; !slices.Equal(asked, want) {
		t.Fatalf("the gate was asked for the attempts %v, want %v", asked, want)
	}
}

// (b) A node is killed and restarted between two requests of a running
// measurement period, with links to it warm everywhere. Its port stays
// occupied by a listener that counts: nothing may ever connect to the old
// address again, the recovered state is byte-identical, and the period
// still costs exactly eq. 4's D.
func TestRestartMidTrafficAbandonsOldLinks(t *testing.T) {
	p := gen(t, 4, 5, 0.2, 0.6, 64)
	c := startDurable(t, p, t.TempDir(), testStoreOpts())
	scheme := sra.Run(p, sra.Options{}).Scheme
	if _, err := c.Deploy(scheme); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DriveTraffic(); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	var requests int64
	for i := 0; i < p.Sites(); i++ {
		for k := 0; k < p.Objects(); k++ {
			requests += p.Reads(i, k) + p.Writes(i, k)
		}
	}
	var step, strays atomic.Int64
	c.SetRequestHook(func() {
		if step.Add(1) != requests/2 {
			return
		}
		old := c.Node(victim).Addr()
		if err := c.Node(victim).Kill(); err != nil {
			t.Errorf("kill: %v", err)
		}
		killed := c.Node(victim).Store().EncodeState()
		squat, err := net.Listen("tcp", old)
		if err != nil {
			t.Errorf("squat on %s: %v", old, err)
			return
		}
		t.Cleanup(func() { squat.Close() })
		go func() {
			for {
				conn, err := squat.Accept()
				if err != nil {
					return
				}
				strays.Add(1)
				conn.Close()
			}
		}()
		node, err := c.RestartNode(victim)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		if got := node.Store().EncodeState(); !bytes.Equal(got, killed) {
			t.Errorf("recovered state differs:\n got %s\nwant %s", got, killed)
		}
	})
	total, err := c.DriveTraffic()
	if err != nil {
		t.Fatal(err)
	}
	if total != scheme.Cost() {
		t.Fatalf("period with a restart in it cost %d != eq.4 D %d", total, scheme.Cost())
	}
	if got := strays.Load(); got != 0 {
		t.Fatalf("%d connections went to the killed node's address", got)
	}
}

// A peer that restarts on the very port it had leaves the address table
// unchanged, so the table cannot tell that the links to it are dead:
// republishing the table drops them all.
func TestSetPeersDropsLinksToRestartedPeer(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 65)
	k := 0
	holder := p.Primary(k)
	reader := 1 - holder
	c := startCluster(t, p)
	a := c.Node(reader)
	if _, err := a.Read(k); err != nil {
		t.Fatal(err)
	}
	if got := idleLinks(&a.links); got != 1 {
		t.Fatalf("%d idle links after one read, want 1", got)
	}
	addr := c.Node(holder).Addr()
	if err := c.Node(holder).close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("", holder, primaries(p), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := listenStore(p, holder, addr, st, c.cfg)
	if err != nil {
		t.Skipf("the port was not free again: %v", err)
	}
	c.nodes[holder] = b2 // c.Close closes it
	c.rewirePeers()
	if got := idleLinks(&a.links); got != 0 {
		t.Fatalf("the republished table kept %d idle links", got)
	}
	if _, err := a.Read(k); err != nil {
		t.Fatalf("read after the peer restarted on its old port: %v", err)
	}
}

// The request path reads the cluster's settings from one atomic snapshot
// while the cluster's setters replace it — the peer-table republish also
// dropping the idle links under the requests' feet. Every request must
// still succeed at its exact price.
func TestSettersDuringTraffic(t *testing.T) {
	p := gen(t, 4, 6, 0.2, 0.6, 68)
	c := startCluster(t, p)
	if _, err := c.Deploy(sra.Run(p, sra.Options{}).Scheme); err != nil {
		t.Fatal(err)
	}
	before := c.TotalNTC()
	var tally atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := c.Node(w % p.Sites())
			for r := 0; r < 60; r++ {
				op := node.Read
				if r%4 == 0 {
					op = node.Write
				}
				cost, err := op((w + r) % p.Objects())
				if err != nil {
					t.Errorf("worker %d request %d: %v", w, r, err)
					return
				}
				tally.Add(cost)
			}
		}(w)
	}
	traffic := make(chan struct{})
	go func() {
		wg.Wait()
		close(traffic)
	}()
	reg := metrics.NewRegistry()
	pass := Dialer(func(int, int) error { return nil })
	// At least 40 rounds, and on until the traffic is done.
rounds:
	for round := 0; ; round++ {
		if round >= 40 {
			select {
			case <-traffic:
				break rounds
			default:
			}
		}
		c.SetRetry(1 + round%3)
		c.SetRequestTimeout(time.Duration(round%2) * 10 * time.Second)
		c.EnableMetrics([]*metrics.Registry{nil, reg}[round%2])
		c.SetCommandDialer([]Dialer{nil, pass}[round%2])
		c.Node(round % p.Sites()).SetDialer([]Dialer{pass, nil}[round%2])
		c.EnableTracing(nil)
		c.rewirePeers()
	}
	if got := c.TotalNTC() - before; got != tally.Load() {
		t.Fatalf("ledger moved %d, requests returned %d", got, tally.Load())
	}
}

// (c) The failure a package-level pool produced: a discarded cluster's
// port is handed to the next cluster and a dead link is picked for it.
// Links die with their owner, so fifty generations never see one.
func TestLinksDieWithTheirCluster(t *testing.T) {
	p := gen(t, 4, 5, 0.2, 0.6, 66)
	scheme := sra.Run(p, sra.Options{}).Scheme
	for round := 0; round < 50; round++ {
		c, err := StartLocal(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Deploy(scheme); err != nil {
			c.Close()
			t.Fatalf("round %d: deploy: %v", round, err)
		}
		total, err := c.DriveTraffic()
		c.Close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if total != scheme.Cost() {
			t.Fatalf("round %d: cost %d != eq.4 D %d", round, total, scheme.Cost())
		}
	}
}

// (d) A framing violation sent over a link: the typed reply arrives, and
// both ends drop the link — the server because the stream cannot be
// re-framed, the client because the server did.
func TestFramingViolationDropsLink(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 67)
	n, err := Listen(p, p.Primary(0), "127.0.0.1:0") // holds object 0, so a read of it succeeds
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	var tr transport
	defer tr.close()
	s := &settings{timeout: 10 * time.Second}

	if resp, err := tr.exchange(s, -1, 0, n.Addr(), message{Op: "read", Object: 0}, nil); err != nil || !resp.OK {
		t.Fatalf("well-formed request: %+v, %v", resp, err)
	}
	if idleLinks(&tr) != 1 || accepted(n) != 1 {
		t.Fatalf("after one exchange: %d idle links, %d served connections, want 1 and 1", idleLinks(&tr), accepted(n))
	}
	// A line just past the cap: the server has read every byte of it when
	// it replies, so its close cannot reset the reply away.
	huge := message{Op: strings.Repeat("x", maxLineBytes)}
	resp, err := tr.exchange(s, -1, 0, n.Addr(), huge, nil)
	if err != nil {
		t.Fatalf("no typed reply: %v", err)
	}
	if resp.OK || resp.Code != codeOversized {
		t.Fatalf("reply %+v, want code %q", resp, codeOversized)
	}
	if got := idleLinks(&tr); got != 0 {
		t.Fatalf("the client kept %d links after a framing rejection", got)
	}
	eventually(t, "the server dropping the connection", func() bool { return accepted(n) == 0 })
	if resp, err := tr.exchange(s, -1, 0, n.Addr(), message{Op: "read", Object: 0}, nil); err != nil || !resp.OK {
		t.Fatalf("request after the rejection: %+v, %v", resp, err)
	}
}

// (e) An exchange that misses its deadline closes its link; the next call
// opens a fresh one, and every exchange on a pooled link runs under a
// deadline of its own — or under none.
func TestTimedOutExchangeClosesLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mute := conns.Add(1) == 1 // the first connection never answers
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					if mute {
						continue
					}
					if _, err := conn.Write([]byte(`{"ok":true}` + "\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	var tr transport
	defer tr.close()
	const short = 50 * time.Millisecond
	call := func(timeout time.Duration) error {
		_, err := tr.exchange(&settings{timeout: timeout}, -1, 0, ln.Addr().String(), message{Op: "read"}, nil)
		return err
	}

	err = call(short)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("mute peer: want a timeout, got %v", err)
	}
	if got := idleLinks(&tr); got != 0 {
		t.Fatalf("the timed-out link went back to the pool (%d idle)", got)
	}
	if err := call(short); err != nil {
		t.Fatalf("call after the timeout: %v", err)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("%d connections opened, want 2 (the timed-out one is not reused)", got)
	}
	// The pooled link's first deadline has passed by now.
	time.Sleep(short + 10*time.Millisecond)
	if err := call(short); err != nil {
		t.Fatalf("pooled link reused a stale deadline: %v", err)
	}
	time.Sleep(short + 10*time.Millisecond)
	if err := call(0); err != nil {
		t.Fatalf("an untimed exchange inherited the previous deadline: %v", err)
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("%d connections opened, want 2 (the healthy link is reused)", got)
	}
}
