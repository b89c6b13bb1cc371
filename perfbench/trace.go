package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// span is one timed call across a layer boundary. Parent 0 means the span
// has no recorded cause (a root, or an HTTP request whose caller the
// recorder cannot see).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int64  `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory for the whole process; write dumps them
// as JSON when the benchmark ends. It is safe for concurrent use.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span; the caller finishes it with end.
func (r *recorder) begin(name string, parent, run int64) span {
	return span{Name: name, ID: r.nextID.Add(1), Parent: parent, Run: run, Start: r.now()}
}

func (r *recorder) end(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// ofRun returns a copy of the spans recorded for one run id.
func (r *recorder) ofRun(run int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of it covered by
// its children's intervals (overlapping children count once), in seconds.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID])) / 1e9
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// allocCounter reads the process's cumulative heap allocation. One
// counter serves one goroutine at a time.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = "/gc/heap/allocs:bytes"
	return c
}

func (c *allocCounter) read() int64 {
	metrics.Read(c.s[:])
	return int64(c.s[0].Value.Uint64())
}

// simTracer decorates the layers of one simulation run. Every span it
// records is a child of the run's own span.
type simTracer struct {
	rec       *recorder
	run, root int64
	alloc     *allocCounter
	costReads atomic.Int64
}

// timed records one call of fn as a span named name.
func (t *simTracer) timed(name string, fn func()) {
	s := t.rec.begin(name, t.root, t.run)
	fn()
	t.rec.end(s)
}

// timedAlloc is timed plus the bytes fn allocated.
func (t *simTracer) timedAlloc(name string, fn func()) {
	s := t.rec.begin(name, t.root, t.run)
	a := t.alloc.read()
	fn()
	s.Alloc = t.alloc.read() - a
	t.rec.end(s)
}

// tracedCost decorates model.CostSource: Add and Reset are spans, Cost
// reads are counted (there are millions, all inside policy and governor
// spans already).
type tracedCost struct {
	model.CostSource
	t *simTracer
}

func (c tracedCost) Cost(i, j int) float64 {
	c.t.costReads.Add(1)
	return c.CostSource.Cost(i, j)
}

func (c tracedCost) Add(sample []float64) {
	c.t.timedAlloc("matrix.add", func() { c.CostSource.Add(sample) })
}

func (c tracedCost) Reset() { c.t.timedAlloc("matrix.reset", c.CostSource.Reset) }

type tracedPolicy struct {
	model.Policy
	t *simTracer
}

func (p tracedPolicy) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (pl *model.Placement, err error) {
	p.t.timedAlloc("policy.place", func() { pl, err = p.Policy.Place(reqs, spec, maxServers) })
	return pl, err
}

type tracedGovernor struct {
	model.Governor
	t *simTracer
}

func (g tracedGovernor) PlanStatic(p *model.Placement, refs []float64, spec model.ServerSpec) (out []float64) {
	g.t.timed("governor.plan", func() { out = g.Governor.PlanStatic(p, refs, spec) })
	return out
}

func (g tracedGovernor) Rescale(members []int, recentRefs []float64, aggPeak float64, spec model.ServerSpec) (out float64) {
	g.t.timed("governor.rescale", func() { out = g.Governor.Rescale(members, recentRefs, aggPeak, spec) })
	return out
}

type tracedPredictor struct {
	model.Predictor
	t *simTracer
}

func (p tracedPredictor) Predict(history []float64) (out float64) {
	p.t.timed("predict", func() { out = p.Predictor.Predict(history) })
	return out
}

// tracedReader decorates model.DatasetReader.Next as spans named name
// ("synth.next" or "tracedir.next"), one per record yielded, counting
// bytes allocated when alloc is set. The call that ends the stream is not
// a record and records no span.
type tracedReader struct {
	model.DatasetReader
	rec         *recorder
	name        string
	parent, run int64
	alloc       *allocCounter
}

func (r *tracedReader) Next() (rec model.VMRecord, err error) {
	s := r.rec.begin(r.name, r.parent, r.run)
	var a int64
	if r.alloc != nil {
		a = r.alloc.read()
	}
	rec, err = r.DatasetReader.Next()
	if r.alloc != nil {
		s.Alloc = r.alloc.read() - a
	}
	if err == nil {
		r.rec.end(s)
	}
	return rec, err
}

// Span identity crosses goroutines and HTTP hops through the context and
// one request header.
type spanKey struct{}

type spanRef struct{ id, run int64 }

func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{s.ID, s.Run})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

const spanHeader = "Perfbench-Span"

// spanTransport forwards the caller's span to the worker in a header.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref := spanFrom(req.Context()); ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10)+"/"+strconv.FormatInt(ref.run, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedHandler records each request of an http.Handler as a span, with
// the request and response body bytes. A request carrying spanHeader
// becomes that span's child, and its context carries the new span on to
// whatever the handler calls. Requests without one (object-store reads,
// whose client the benchmark cannot reach) are filed under run *run.
type tracedHandler struct {
	h    http.Handler
	name string
	rec  *recorder
	run  *atomic.Int64
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, run := int64(0), h.run.Load()
	if id, rn, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
		parent, _ = strconv.ParseInt(id, 10, 64)
		run, _ = strconv.ParseInt(rn, 10, 64)
	}
	s := h.rec.begin(h.name, parent, run)
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	h.h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), s)))
	s.Bytes = body.n + cw.n
	h.rec.end(s)
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tracedExecutor records each ExecuteCell call as a "sweep.cell" span
// under the pass span in ctx.
type tracedExecutor struct {
	sweep.Executor
	rec *recorder
}

func (e tracedExecutor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	ref := spanFrom(ctx)
	s := e.rec.begin("sweep.cell", ref.id, ref.run)
	res, err := e.Executor.ExecuteCell(withSpan(ctx, s), run)
	e.rec.end(s)
	return res, err
}

// tracedKind is a workload kind that delegates to another and records
// every record its reader yields as a span under the span in the opening
// context — how the traced sweep sees recorded-trace ingest inside the
// workers' dcsim.Run calls.
type tracedKind struct {
	inner dcsim.WorkloadSource
	kind  string
	name  string
	rec   *recorder
}

func (k tracedKind) Check(w model.Workload) error {
	w.Kind = k.kind
	return k.inner.Check(w)
}

func (k tracedKind) Traces(w model.Workload) (*model.Dataset, error) {
	w.Kind = k.kind
	return k.inner.Traces(w)
}

func (k tracedKind) SeedInvariant() bool {
	si, ok := k.inner.(model.SeedInvariantSource)
	return ok && si.SeedInvariant()
}

func (k tracedKind) Open(ctx context.Context, w model.Workload) (model.DatasetReader, error) {
	w.Kind = k.kind
	r, err := model.OpenSource(ctx, k.inner, w)
	if err != nil {
		return nil, err
	}
	ref := spanFrom(ctx)
	return &tracedReader{DatasetReader: r, rec: k.rec, name: k.name, parent: ref.id, run: ref.run}, nil
}
