package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Start and End are nanoseconds since the run began. A
// client span's request id is sent as X-Request-ID, so the handler span
// recorded on the server side of the same request carries it too.
type span struct {
	ID        uint64           `json:"id"`
	Parent    uint64           `json:"parent,omitempty"`
	Name      string           `json:"name"`
	RequestID string           `json:"request_id,omitempty"`
	Start     int64            `json:"start_ns"`
	End       int64            `json:"end_ns"`
	Attrs     map[string]int64 `json:"attrs,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory for the traced run. A nil recorder is
// the untraced run: it hands out no ids and records nothing. on gates
// recording so a traced run can alternate traced and untraced blocks
// and measure what tracing itself costs.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record adds a span for a call that ran from start to end.
func (r *recorder) record(id, parent uint64, name string, start, end time.Time, attrs map[string]int64) {
	r.add(span{ID: id, Parent: parent, Name: name, Start: r.since(start), End: r.since(end), Attrs: attrs})
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as JSON lines, one span per line.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// reqIDPrefix marks request ids the benchmark client generated; the
// digits after it are the client span's id.
const reqIDPrefix = "pb"

func requestID(spanID uint64) string { return reqIDPrefix + strconv.FormatUint(spanID, 10) }

// handlerSpans wraps the service handler and records a
// "service.handler" span, the handler's own time, for every request
// that arrives with a benchmark request id. Its parent is the client
// span of the same request, so rtt minus handler time is the transport.
type handlerSpans struct {
	next http.Handler
	rec  *recorder
}

func (h handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get("X-Request-ID")
	parent, err := strconv.ParseUint(strings.TrimPrefix(rid, reqIDPrefix), 10, 64)
	if !strings.HasPrefix(rid, reqIDPrefix) || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.rec.add(span{ID: h.rec.newID(), Parent: parent, Name: "service.handler", RequestID: rid,
		Start: h.rec.since(start), End: h.rec.since(end)})
}
