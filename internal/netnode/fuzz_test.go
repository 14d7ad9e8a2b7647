package netnode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// replyCodes is every code a rejection may carry.
var replyCodes = map[string]bool{
	codeBadOp: true, codeBadJSON: true, codeOversized: true, codeBadObject: true,
	codeBadSite: true, codeNotPrimary: true, codeNotHolder: true, codeStorage: true,
}

// FuzzNodeLine feeds arbitrary bytes through serve's line decoder into
// Node.handle, one line at a time over a net.Pipe. The node is a memory
// site whose peer table spans the universe with every address empty, so a
// broadcast or reconcile misses its targets, which stay behind, instead of
// erroring.
// Oracles: no panic; every reply is OK or carries one of the documented
// codes; after every line the site's state and NTC are byte-identical to
// a twin site's that was sent, one request at a time, only what the site
// acknowledged — an OK line whole, a batch's first applied records as a
// batch of one each, a rejected line nothing. A coordinator record outside
// a batch is refused.
func FuzzNodeLine(f *testing.F) {
	p := gen(f, 4, 6, 0.3, 0.5, 1)
	site := p.Primary(0)
	other := (site + 1) % p.Sites()
	for _, tc := range codecCases(site, other) {
		f.Add([]byte(tc.payload))
	}
	for _, tc := range badFrames {
		f.Add([]byte(tc.payload))
	}
	valid := []string{
		`{"op":"read","obj":0}`,
		fmt.Sprintf(`{"op":"batch","obj":0,"batch":[{"op":"replicas","obj":0,"sites":[%d,%d]}]}`, site, other),
		fmt.Sprintf(`{"op":"update","obj":0,"from":%d,"trace":"t1","span":"s1"}`, other),
		fmt.Sprintf(`{"op":"reconcile","obj":0,"sites":[%d]}`, other),
		`{"op":"sync","obj":0,"version":7}`,
		`{"op":"batch","obj":0,"batch":[{"op":"place","obj":1,"version":2}]}`,
		`{"op":"batch","obj":0,"batch":[{"op":"drop","obj":1}]}`,
		fmt.Sprintf(`{"op":"batch","obj":0,"batch":[{"op":"primary","obj":1,"site":%d}]}`, site),
		`{"op":"place","obj":1,"version":2}`,
		fmt.Sprintf(`{"op":"batch","obj":0,"batch":[{"op":"place","obj":1,"version":3},{"op":"replicas","obj":1,"sites":[%d,%d]},{"op":"primary","obj":1,"site":%d},{"op":"drop","obj":1}]}`, site, other, other),
	}
	for _, line := range valid {
		f.Add([]byte(line + "\n"))
	}
	// A session: every op in turn, a coordinator record outside a batch, a
	// second reconcile, then a blank line, which the encoder never writes.
	f.Add([]byte(strings.Join(valid, "\n") + "\n" + valid[3] + "\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Listen(p, site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.close()
		n.setPeers(make([]string, p.Sites()))
		twin, err := Listen(p, site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer twin.close()
		twin.setPeers(make([]string, p.Sites()))

		client, server := net.Pipe()
		defer client.Close()
		_ = client.SetDeadline(time.Now().Add(10 * time.Second))
		served := make(chan struct{})
		go func() {
			defer close(served)
			n.serve(server)
		}()
		// Replies are read as they come: serve answers an oversized line
		// before it has read the line to the end.
		replies, stop := make(chan reply), make(chan struct{})
		defer close(stop)
		go func() {
			defer close(replies)
			dec := json.NewDecoder(client)
			for {
				var resp reply
				if dec.Decode(&resp) != nil {
					return
				}
				select {
				case replies <- resp:
				case <-stop: // the input failed before reading this reply
					return
				}
			}
		}()
		check := func(line []byte, resp reply) {
			if resp.OK != (resp.Code == "") || (!resp.OK && !replyCodes[resp.Code]) {
				t.Fatalf("line %s: reply %+v is neither OK nor a documented rejection", brief(line), resp)
			}
		}
		// same fails unless the site equals the twin.
		same := func(what string) {
			if got, want := n.Store().EncodeState(), twin.Store().EncodeState(); !bytes.Equal(got, want) || n.NTC() != twin.NTC() {
				t.Fatalf("%s moved the site off its twin:\nsite %s (ntc %d)\ntwin %s (ntc %d)", what, got, n.NTC(), want, twin.NTC())
			}
		}
	lines:
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			wrote := make(chan error, 1)
			go func() {
				_, err := client.Write(line)
				wrote <- err
			}()
			if line[len(line)-1] != '\n' {
				// serve drops an unterminated tail at the end of the stream;
				// it answers one only when it is oversized, and then closes.
				select {
				case resp := <-replies:
					if resp.Code != codeOversized {
						t.Fatalf("unhandled line %s answered %+v", brief(line), resp)
					}
					break lines
				case err := <-wrote:
					if err != nil {
						break lines
					}
				}
				continue
			}
			resp, ok := <-replies
			if !ok {
				t.Fatalf("line %s: no reply", brief(line))
			}
			<-wrote
			check(line, resp)
			if resp.Code == codeBadJSON || resp.Code == codeOversized {
				same(fmt.Sprintf("line %s, rejected (%s),", brief(line), resp.Code))
				break // serve closes a stream it can no longer frame
			}
			var msg message
			if err := json.Unmarshal(line, &msg); err != nil {
				t.Fatalf("line %s: serve decoded what the test cannot: %v", brief(line), err)
			}
			var acked []message
			switch {
			case msg.Op == opBatch && (resp.Applied > len(msg.Batch) || resp.OK && resp.Applied != len(msg.Batch)):
				t.Fatalf("line %s: reply %+v for a batch of %d records", brief(line), resp, len(msg.Batch))
			case msg.Op == opBatch:
				for _, r := range msg.Batch[:resp.Applied] {
					acked = append(acked, message{Op: opBatch, Batch: []message{r}})
				}
			case resp.OK:
				acked = []message{msg}
			}
			for _, r := range acked {
				if tr := twin.handle(r); !tr.OK {
					t.Fatalf("line %s: the twin rejected %+v: %+v", brief(line), r, tr)
				}
			}
			same(fmt.Sprintf("line %s, answered %+v,", brief(line), resp))
		}
		client.Close()
		for resp := range replies {
			check(nil, resp)
		}
		<-served
		same("the end of the stream")
	})
}

// brief quotes a line for a failure message, eliding the middle of a long one.
func brief(line []byte) string {
	if len(line) <= 120 {
		return fmt.Sprintf("%q", line)
	}
	return fmt.Sprintf("%q…%q (%d bytes)", line[:60], line[len(line)-60:], len(line))
}
