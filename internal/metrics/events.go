package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// EventLog is a structured JSONL sink: one JSON object per line, each
// carrying a monotonic sequence number, the event name and the caller's
// fields (keys sorted by encoding/json, so equal events marshal to equal
// bytes). Emit is safe for concurrent use; lines are flushed as written so
// a crashed run keeps everything emitted before the crash.
//
// Events carry no wall-clock stamp: the solver runtime's boundary-only
// discipline makes event content deterministic for deterministic
// quantities, and a log without stamps stays byte-comparable across runs.
type EventLog struct {
	mu  sync.Mutex
	w   *bufio.Writer
	seq int64
}

// NewEventLog wraps w as a JSONL event sink.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: bufio.NewWriter(w)}
}

// Emit writes one event line. fields must be JSON-encodable; the reserved
// keys "seq" and "event" are overwritten if supplied.
func (l *EventLog) Emit(event string, fields map[string]any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	obj := make(map[string]any, len(fields)+3)
	for k, v := range fields {
		obj[k] = v
	}
	obj["seq"] = l.seq
	obj["event"] = event
	data, err := json.Marshal(obj)
	if err != nil {
		// A non-encodable field is a programmer error; record it without
		// losing the line.
		data = []byte(`{"event":"metrics.encode_error","error":` + jsonString(err.Error()) + `}`)
	}
	l.w.Write(data)
	l.w.WriteByte('\n')
	l.w.Flush()
}

// Flush forces buffered lines out and reports the log's first write
// error: Emit flushes per line but cannot return a failure, the buffered
// writer keeps it, and this is where the owner of the sink collects it.
func (l *EventLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
