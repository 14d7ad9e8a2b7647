package netnode

// Wire-codec edge cases: malformed, truncated and oversized request lines
// must produce typed error replies (or a clean close for unframeable
// streams), never a panic, and must not wedge the node for later clients.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// rawExchange writes raw bytes to the node, optionally half-closes the
// write side, and decodes one reply line.
func rawExchange(t *testing.T, addr string, payload []byte, closeWrite bool) (reply, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}
	var resp reply
	err = json.NewDecoder(bufio.NewReader(conn)).Decode(&resp)
	return resp, err
}

// codecCase is one row of the wire-codec edge-case table. FuzzNodeLine
// seeds its corpus with the payloads.
type codecCase struct {
	name       string
	site       int // the node the payload is sent to
	payload    string
	closeWrite bool
	wantCode   string
	wantClosed bool // stream closes with no reply at all
	applied    int  // the batch records the site applied
}

// codecCases is the table for a problem whose object 0 is primaried at
// prim and not held at other.
func codecCases(prim, other int) []codecCase {
	oversized := `{"op":"read","obj":0,"pad":"` + strings.Repeat("x", maxLineBytes) + `"}` + "\n"
	return []codecCase{
		{name: "bad JSON line", payload: "{op read}\n", wantCode: codeBadJSON},
		{name: "unknown op", payload: `{"op":"explode","obj":0}` + "\n", wantCode: codeBadOp},
		{name: "oversized line", payload: oversized, wantCode: codeOversized},
		{name: "truncated request", payload: `{"op":"read","obj`, closeWrite: true, wantClosed: true},
		{name: "object out of range", payload: `{"op":"read","obj":99}` + "\n", wantCode: codeBadObject},
		{name: "negative object", payload: `{"op":"read","obj":-1}` + "\n", wantCode: codeBadObject},
		{name: "empty line then valid request", site: prim, payload: "\n" + `{"op":"read","obj":0}` + "\n", wantCode: codeBadJSON},
		{name: "retired op nearest", payload: `{"op":"nearest","obj":0,"site":1}` + "\n", wantCode: codeBadOp},
		{name: "retired op registry", site: prim, payload: `{"op":"registry","obj":0,"sites":[0]}` + "\n", wantCode: codeBadOp},
		{name: "retired op version", site: prim, payload: `{"op":"version","obj":0}` + "\n", wantCode: codeBadOp},
		{name: "primary site out of range", payload: `{"op":"batch","obj":0,"batch":[{"op":"primary","obj":0,"site":3}]}` + "\n", wantCode: codeBadSite},
		{name: "replicas site out of range", payload: `{"op":"batch","obj":0,"batch":[{"op":"replicas","obj":0,"sites":[0,3]}]}` + "\n", wantCode: codeBadSite},
		{name: "replicas site negative", site: prim, payload: `{"op":"batch","obj":0,"batch":[{"op":"replicas","obj":0,"sites":[-1]}]}` + "\n", wantCode: codeBadSite},
		{name: "update to a non-primary", site: other, payload: `{"op":"update","obj":0}` + "\n", wantCode: codeNotPrimary},
		{name: "reconcile to a non-primary", site: other, payload: `{"op":"reconcile","obj":0}` + "\n", wantCode: codeNotPrimary},
		{name: "drop of a primary copy", site: prim, payload: `{"op":"batch","obj":0,"batch":[{"op":"drop","obj":0}]}` + "\n", wantCode: codeNotPrimary},
		{name: "coordinator record outside a batch", site: other, payload: `{"op":"place","obj":0,"version":1}` + "\n", wantCode: codeBadOp},
		{name: "empty batch", payload: `{"op":"batch","obj":0}` + "\n", wantCode: codeBadOp},
		{name: "nested batch", payload: `{"op":"batch","obj":0,"batch":[{"op":"batch","obj":0,"batch":[{"op":"drop","obj":1}]}]}` + "\n", wantCode: codeBadOp},
		{name: "data-path op in a batch", site: other, payload: `{"op":"batch","obj":0,"batch":[{"op":"primary","obj":1,"site":1},{"op":"read","obj":0}]}` + "\n", wantCode: codeBadOp},
		{name: "batch rejected at record 1", site: prim, payload: `{"op":"batch","obj":0,"batch":[{"op":"replicas","obj":1,"sites":[0]},{"op":"drop","obj":0},{"op":"primary","obj":1}]}` + "\n", wantCode: codeNotPrimary, applied: 1},
		// The decoder accepts only the encoder's own spelling of a line:
		// each form below is JSON that the encoder never writes.
		{name: "spacing", site: prim, payload: `{"op": "read","obj":0}` + "\n", wantCode: codeBadJSON},
		{name: "another key order", site: prim, payload: `{"obj":0,"op":"read"}` + "\n", wantCode: codeBadJSON},
		{name: "a needless escape", site: prim, payload: `{"op":"re\u0061d","obj":0}` + "\n", wantCode: codeBadJSON},
		{name: "escaped slash", site: prim, payload: `{"op":"read","obj":0,"trace":"t\/1"}` + "\n", wantCode: codeBadJSON},
		{name: "short escape", site: prim, payload: `{"op":"read","obj":0,"trace":"t\n1"}` + "\n", wantCode: codeBadJSON},
		{name: "escaped line separator", site: prim, payload: `{"op":"read","obj":0,"trace":"\u2028"}` + "\n", wantCode: codeBadJSON},
		{name: "zero omitempty field", site: prim, payload: `{"op":"read","obj":0,"from":0}` + "\n", wantCode: codeBadJSON},
		{name: "minus zero", site: prim, payload: `{"op":"read","obj":-0}` + "\n", wantCode: codeBadJSON},
		{name: "leading zero", site: prim, payload: `{"op":"read","obj":01}` + "\n", wantCode: codeBadJSON},
		{name: "empty list", site: prim, payload: `{"op":"batch","obj":0,"batch":[]}` + "\n", wantCode: codeBadJSON},
		{name: "repeated key", site: prim, payload: `{"op":"read","obj":0,"obj":3}` + "\n", wantCode: codeBadJSON},
		{name: "unknown key", site: prim, payload: `{"op":"read","obj":0,"x":1}` + "\n", wantCode: codeBadJSON},
		{name: "case-variant key", site: prim, payload: `{"OP":"read","obj":0}` + "\n", wantCode: codeBadJSON},
		{name: "null line", site: prim, payload: "null\n", wantCode: codeBadJSON},
		{name: "null value", site: prim, payload: `{"op":"read","obj":null}` + "\n", wantCode: codeBadJSON},
		{name: "fractional object", site: prim, payload: `{"op":"read","obj":1.0}` + "\n", wantCode: codeBadJSON},
		{name: "exponent object", site: prim, payload: `{"op":"read","obj":1e2}` + "\n", wantCode: codeBadJSON},
		{name: "quoted object", site: prim, payload: `{"op":"read","obj":"0"}` + "\n", wantCode: codeBadJSON},
		{name: "invalid UTF-8 in a string", site: prim, payload: "{\"op\":\"read\xff\",\"obj\":0}\n", wantCode: codeBadJSON},
		{name: "repeated batch key", site: other, payload: `{"op":"batch","batch":[{"op":"drop","obj":1}],"batch":[{"op":"place"}]}` + "\n", wantCode: codeBadJSON},
	}
}

func TestWireCodecEdgeCases(t *testing.T) {
	p := gen(t, 3, 3, 0.3, 0.5, 1)
	c := startCluster(t, p)
	prim := p.Primary(0)
	other := (prim + 1) % p.Sites() // holds no copy of object 0

	for _, tc := range codecCases(prim, other) {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := rawExchange(t, c.Node(tc.site).Addr(), []byte(tc.payload), tc.closeWrite)
			if tc.wantClosed {
				if err == nil {
					t.Fatalf("expected the node to close the stream without replying, got %+v", resp)
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("expected EOF-style close, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("no reply: %v", err)
			}
			if resp.Code != tc.wantCode || resp.Applied != tc.applied {
				t.Fatalf("reply code %q with %d applied, want %q with %d (reply %+v)", resp.Code, resp.Applied, tc.wantCode, tc.applied, resp)
			}
			if tc.wantCode != "" && resp.OK {
				t.Fatalf("error reply claims OK: %+v", resp)
			}
		})
	}

	// The abuse above must not have wedged the node, nor moved object 0:
	// a well-formed request on a fresh connection still gets served by
	// the primary it always had, at the version it always had.
	resp, err := callOnce(c.Node(prim).Addr(), message{Op: "read", Object: 0}, 0)
	if err != nil {
		t.Fatalf("node unusable after codec abuse: %v", err)
	}
	if !resp.OK || resp.Version != 0 {
		t.Fatalf("read request after codec abuse: %+v", resp)
	}
	for i := 0; i < p.Sites(); i++ {
		if got := c.Node(i).Store().PrimaryOf(0); got != prim {
			t.Fatalf("site %d routes object 0 to primary %d after rejected requests, want %d", i, got, prim)
		}
	}
	if !c.Node(prim).Holds(0) || c.Node(other).Holds(0) {
		t.Fatalf("rejected requests moved object 0's copies")
	}

	// A crash-stopped store refuses every mutation: the node answers
	// codeStorage rather than acknowledge what never reached the log.
	for _, tc := range []struct {
		site int
		msg  message
	}{
		{prim, message{Op: "update", Object: 0, From: other}},
		{prim, message{Op: "sync", Object: 0, Version: 1}},
		{other, message{Op: opBatch, Batch: []message{{Op: "place", Object: 0, Version: 1}}}},
		{other, message{Op: opBatch, Batch: []message{{Op: "drop", Object: 0}}}},
		{other, message{Op: opBatch, Batch: []message{{Op: "replicas", Object: 0, Sites: []int{prim}}}}},
		{other, message{Op: opBatch, Batch: []message{{Op: "primary", Object: 0, Site: other}}}},
	} {
		n := c.Node(tc.site)
		if err := n.Kill(); err != nil {
			t.Fatal(err)
		}
		if resp := n.handle(tc.msg); resp.OK || resp.Code != codeStorage || resp.Applied != 0 {
			t.Errorf("%s at crash-stopped site %d: reply %+v, want code %q with nothing applied", tc.msg.Op, tc.site, resp, codeStorage)
		}
	}
}

// TestFramingViolationClosesConn pins that oversized and malformed lines
// terminate the connection after the typed reply — the stream cannot be
// re-framed — while in-protocol errors keep it open.
func TestFramingViolationClosesConn(t *testing.T) {
	p := gen(t, 3, 3, 0.3, 0.5, 1)
	c := startCluster(t, p)
	addr := c.Node(0).Addr()

	for _, tc := range []struct {
		name      string
		payload   string
		wantClose bool
	}{
		{"bad JSON closes", "{op}\n", true},
		{"oversized closes", strings.Repeat("y", maxLineBytes+2) + "\n", true},
		{"unknown op keeps serving", `{"op":"explode","obj":0}` + "\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write([]byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			var first reply
			if err := json.NewDecoder(r).Decode(&first); err != nil {
				t.Fatalf("no error reply before close: %v", err)
			}
			// Second request on the same connection.
			if _, err := conn.Write([]byte(`{"op":"read","obj":0}` + "\n")); err != nil {
				if tc.wantClose {
					return // write failed because the node closed: fine
				}
				t.Fatal(err)
			}
			var second reply
			err = json.NewDecoder(r).Decode(&second)
			if tc.wantClose {
				if err == nil {
					t.Fatalf("connection survived a framing violation: %+v", second)
				}
			} else if err != nil {
				t.Fatalf("connection died after an in-protocol error: %v", err)
			}
		})
	}
}

// TestCallPeerClosesMidReply exercises the client side: a peer that
// accepts and then closes without replying (or mid-reply) must surface a
// transport error from call, not a hang or panic.
func TestCallPeerClosesMidReply(t *testing.T) {
	for _, tc := range []struct {
		name    string
		partial string // bytes written before the abrupt close
	}{
		{"close before any reply", ""},
		{"close mid-reply", `{"ok":tr`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				// Drain the request line, emit the partial bytes, slam shut.
				_, _ = bufio.NewReader(conn).ReadString('\n')
				if tc.partial != "" {
					_, _ = conn.Write([]byte(tc.partial))
				}
				conn.Close()
			}()
			_, err = callOnce(ln.Addr().String(), message{Op: "read", Object: 0}, 5*time.Second)
			if err == nil {
				t.Fatal("call against a peer that closed mid-reply returned no error")
			}
			if !strings.Contains(err.Error(), "recv") {
				t.Fatalf("expected a recv error, got %v", err)
			}
		})
	}
}

// TestUnknownOpTypedReplyRegression is the regression for the formerly
// bare default branches: an unknown op must yield a typed codeBadOp reply
// naming the op, and a sync for an unheld object must yield codeNotHolder
// — neither silently succeeds.
func TestUnknownOpTypedReplyRegression(t *testing.T) {
	p := gen(t, 3, 3, 0.3, 0.5, 1)
	c := startCluster(t, p)
	k := 0
	nonHolder := (p.Primary(k) + 1) % p.Sites()

	resp, err := callOnce(c.Node(0).Addr(), message{Op: "mystery", Object: k}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != codeBadOp || !strings.Contains(resp.Err, "mystery") {
		t.Errorf("unknown op reply = %+v, want Code=%q naming the op", resp, codeBadOp)
	}

	resp, err = callOnce(c.Node(nonHolder).Addr(), message{Op: "sync", Object: k, Version: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != codeNotHolder {
		t.Errorf("sync to non-holder reply = %+v, want Code=%q", resp, codeNotHolder)
	}
	if got := c.Node(nonHolder).Version(k); got != 0 {
		t.Errorf("rejected sync still bumped version to %d", got)
	}
}
