package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the harness made into a layer of the program:
// an experiment, a cell (one Executor.Run), a Runner.Warm, a client
// request, or a router or shard ServeHTTP. Start and End are nanoseconds
// since the recorder was created; Parent is the ID of the span that caused
// this one (0 for a root); Trace is the root span's ID, shared by every
// span of one request.
type Span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Trace  int64             `json:"trace"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span kinds, one per layer boundary the harness wraps.
const (
	kindExperiment = "experiment"
	kindCell       = "cell"
	kindWarm       = "warm"
	kindClient     = "client"
	kindRouter     = "router"
	kindShard      = "shard"
)

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the timed paths carry no
// tracing cost beyond a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// ref identifies an open span to its children.
type ref struct{ id, trace int64 }

// start opens a span under parent (the zero ref for a root span).
func (r *recorder) start(kind, name string, parent ref) ref {
	if r == nil {
		return ref{}
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	id := r.next
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	r.spans = append(r.spans, Span{ID: id, Parent: parent.id, Trace: trace, Kind: kind, Name: name, Start: now})
	return ref{id: id, trace: trace}
}

// end closes the span, attaching optional key/value attributes.
func (r *recorder) end(s ref, attrs ...string) {
	if r == nil || s.id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[s.id-1]
	sp.End = now
	if len(attrs) > 0 {
		sp.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			sp.Attrs[attrs[i]] = attrs[i+1]
		}
	}
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// spanFile is the JSON document a traced run writes.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []Span             `json:"spans"`
	Detail   map[string]float64 `json:"detail"`
}

// write stores the spans and the per-cell detail as one JSON file.
func (r *recorder) write(path, workload string, seed int64, detail map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spanFile{Workload: workload, Seed: seed, Spans: r.snapshot(), Detail: detail}); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover (overlapping children count once).
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// children indexes spans by parent ID.
func children(spans []Span) map[int64][]Span {
	out := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// --- Propagation across the in-process HTTP hops --------------------------

// spanHeader carries the calling span ("trace/id") from one tier to the
// next, so shard spans hang under the router span that sent them.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

func withSpan(ctx context.Context, s ref) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) ref {
	s, _ := ctx.Value(spanKey{}).(ref)
	return s
}

func parseSpanHeader(v string) ref {
	var s ref
	if trace, id, ok := strings.Cut(v, "/"); ok {
		s.trace, _ = strconv.ParseInt(trace, 10, 64)
		s.id, _ = strconv.ParseInt(id, 10, 64)
	}
	return s
}

// propagate is an http.RoundTripper that stamps the span found in the
// request context onto the outgoing request's header.
type propagate struct{ next http.RoundTripper }

func (p propagate) RoundTrip(req *http.Request) (*http.Response, error) {
	if s := spanFrom(req.Context()); s.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", s.trace, s.id))
	}
	return p.next.RoundTrip(req)
}

// traced wraps a tier's handler in a span of the given kind, parented on
// the span named in the request header, and puts the new span in the
// request context so the tier's own outgoing requests carry it on. The
// span's "bytes" attribute is the response body size.
func traced(rec *recorder, kind string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := rec.start(kind, r.URL.Path, parseSpanHeader(r.Header.Get(spanHeader)))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), s)))
		rec.end(s, "bytes", strconv.FormatInt(cw.n, 10))
	})
}

// countingWriter counts response body bytes and keeps streaming working
// by passing Flush through.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
