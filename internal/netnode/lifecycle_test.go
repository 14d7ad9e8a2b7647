package netnode

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"drp/internal/xrand"
)

// Regression: Close used to panic on the second call (unguarded
// close(n.closed)). It must be idempotent, including concurrently and
// when mixed with Kill.
func TestCloseIdempotent(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 21)
	n, err := Listen(p, 0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.close(); err != nil {
		t.Fatal(err)
	}
	if err := n.close(); err != nil {
		t.Fatalf("second Close errored: %v", err)
	}

	n2, err := Listen(p, 0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = n2.close()
		}()
	}
	wg.Wait()

	n3, err := Listen(p, 1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n3.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := n3.close(); err != nil {
		t.Fatalf("Close after Kill errored: %v", err)
	}
}

// Property test for the backoff schedule over retry ∈ [0, 64]: 200 µs
// doubling to the 1 ms cap, never negative, never past the cap, monotone
// non-decreasing without jitter. Retry 62+ used to overflow the doubling
// into a negative sleep when the cap was 0.
func TestBackoffProperties(t *testing.T) {
	want := []time.Duration{200 * time.Microsecond, 400 * time.Microsecond, 800 * time.Microsecond, time.Millisecond}
	prev := time.Duration(-1)
	for retry := 0; retry <= 64; retry++ {
		d := backoff(retry, nil)
		if d != want[min(retry, len(want)-1)] {
			t.Fatalf("retry %d: backoff %v, want %v", retry, d, want[min(retry, len(want)-1)])
		}
		if d < prev {
			t.Fatalf("retry %d: backoff %v < previous %v (not monotone)", retry, d, prev)
		}
		prev = d
	}
	// Jitter stays within [d/2, d]: never negative, never above the
	// unjittered schedule.
	rng := xrand.New(99)
	for retry := 0; retry <= 64; retry++ {
		full := backoff(retry, nil)
		got := backoff(retry, rng)
		if got < full/2 || got > full {
			t.Fatalf("retry %d: jittered backoff %v outside [%v, %v]", retry, got, full/2, full)
		}
	}
}

// Regression: error replies used to be written without a deadline, so a
// client that sent garbage and never read could pin the handler (and
// Close) forever. sendReply must give up once the timeout passes.
func TestSendReplyHonoursDeadline(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 22)
	n, err := Listen(p, 0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	n.cfg.edit(func(s *settings) { s.timeout = 50 * time.Millisecond })

	// net.Pipe is fully synchronous: a write blocks until the far end
	// reads, which nothing ever does here. Only the deadline can free it.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		_, err := n.sendReply(server, nil, &reply{Code: codeBadJSON, Err: "x"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("reply write to a stalled client succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply write to a stalled client never timed out")
	}
}

// badFrames are framing violations and the code each is rejected with.
// The oversized payload is sized to a multiple of the server's read buffer
// so every sent byte is consumed before the reply: unread bytes at close
// would RST the connection and could discard the reply.
var badFrames = []struct {
	name, payload, code string
}{
	{"oversized", strings.Repeat("x", maxLineBytes+linkBufBytes), codeOversized},
	{"malformed", "{not json}\n", codeBadJSON},
}

// Oversized and malformed frames get a typed error reply (under the same
// deadline as normal replies) and the connection closes.
func TestServeRejectsBadFrames(t *testing.T) {
	p := gen(t, 2, 2, 0.05, 0.5, 23)
	n, err := Listen(p, 0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	n.cfg.edit(func(s *settings) { s.timeout = time.Second })

	for _, tc := range badFrames {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write([]byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			var resp reply
			if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
				t.Fatalf("no error reply: %v", err)
			}
			if resp.OK || resp.Code != tc.code {
				t.Fatalf("reply %+v, want code %q", resp, tc.code)
			}
			// The stream is no longer trusted: the server must close it.
			if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
				t.Fatal("connection stayed open after a framing violation")
			}
		})
	}
}
