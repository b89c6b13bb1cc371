package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/objstore"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/remote"
)

// tracedObjKind is the workload kind a traced pass names instead of
// "trace-obj"; it reads the same recording through a decorated reader.
const tracedObjKind = "perfbench-trace-obj"

// sweepTarget is a recorded-trace sweep: an object store and two sweep
// workers on loopback, all in this process, fed by a remote executor.
type sweepTarget struct {
	grid      sweep.Grid
	exec      *remote.Executor
	workers   int
	reference []byte // CSV report of a local-executor pass
	dir       string
	servers   []*http.Server
	tracing   atomic.Bool
	runs      atomic.Int64 // run id of the traced pass in flight
	rec       *recorder
}

// serve starts h on a loopback port and returns its base URL.
func (t *sweepTarget) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// close stops the servers, waiting for their handlers, and removes the
// recording.
func (t *sweepTarget) close() {
	for _, s := range t.servers {
		s.Shutdown(context.Background())
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// handler wraps h so it records spans named name while tracing is on.
func (t *sweepTarget) handler(name string, h http.Handler) http.Handler {
	if t.rec == nil {
		return h
	}
	traced := tracedHandler{h: h, name: name, rec: t.rec, run: &t.runs}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.tracing.Load() {
			traced.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// setupSweep records the seed's workload, starts the store and workers,
// checks the grid, and computes the local-executor reference report.
func setupSweep(ctx context.Context, def workloadDef, seed int64, tmp string, rec *recorder) (t *sweepTarget, err error) {
	g, err := sweep.DecodeGrid(def.Grid)
	if err != nil {
		return nil, err
	}
	t = &sweepTarget{workers: def.Remote.SweepWorkers, rec: rec}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.dir, err = os.MkdirTemp(tmp, "recording-"); err != nil {
		return nil, err
	}
	w := g.Base.Workload
	ds, err := dcsim.GenerateTraces(model.Workload{Kind: "datacenter", VMs: w.VMs, Groups: w.Groups, Hours: w.Hours, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := dcsim.WriteTraceDir(t.dir, ds, def.Recording.VMsPerFile); err != nil {
		return nil, err
	}
	storeURL, err := t.serve(t.handler("objstore.serve", &objstore.DirServer{Dir: t.dir}))
	if err != nil {
		return nil, err
	}
	g.Base.Workload.Path = storeURL
	t.grid = g

	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if want := def.Governors[c.Scenario.Policy]; c.Scenario.Governor != want {
			return nil, fmt.Errorf("cell %s resolves governor %q, definition says %q", c.Name(), c.Scenario.Governor, want)
		}
	}

	var urls []string
	for i := 0; i < def.Remote.Workers; i++ {
		u, err := t.serve(t.handler("remote.handler", &remote.Server{}))
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	client := &http.Client{Transport: spanTransport{base: http.DefaultTransport}}
	t.exec, err = remote.NewExecutor(urls, remote.WithInFlight(def.Remote.InFlight), remote.WithHTTPClient(client))
	if err != nil {
		return nil, err
	}
	if err := t.exec.PreflightGrid(ctx, g); err != nil {
		return nil, err
	}
	ref, err := sweep.Run(ctx, g, sweep.Options{Workers: t.workers})
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	var buf bytes.Buffer
	if err := ref.WriteCSV(&buf); err != nil {
		return nil, err
	}
	t.reference = buf.Bytes()
	return t, nil
}

// checkingExecutor checks the invariants of every Result the remote
// executor returns.
type checkingExecutor struct {
	sweep.Executor
	mu     sync.Mutex
	failed int
	errs   []string
}

func (e *checkingExecutor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	res, err := e.Executor.ExecuteCell(ctx, run)
	if err == nil {
		if errs := checkResult(res, run.Scenario().Normalized().PeriodSamples); len(errs) > 0 {
			e.mu.Lock()
			e.failed++
			e.errs = append(e.errs, run.Cell.Name()+": "+strings.Join(errs, "; "))
			e.mu.Unlock()
		}
	}
	return res, err
}

// memoryExecutor forces a GC as each cell-run returns and notes the
// largest live heap. Run one at a time, no run is in flight then, so the
// figure is what the process retains between runs; with two in flight it
// would depend on where the other run happened to be.
type memoryExecutor struct {
	sweep.Executor
	peak uint64
	ms   runtime.MemStats
}

func (e *memoryExecutor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	res, err := e.Executor.ExecuteCell(ctx, run)
	runtime.GC()
	runtime.ReadMemStats(&e.ms)
	e.peak = max(e.peak, e.ms.HeapAlloc)
	return res, err
}

// pass runs the whole grid once through the remote executor. With
// tracing, the pass, each cell, each worker request, each store request
// and each recorded VM read become spans of run runID. With memory, the
// pass runs one cell at a time through a memoryExecutor.
func (t *sweepTarget) pass(ctx context.Context, runID int64, memory bool) (unit, layerRun, uint64, error) {
	g := t.grid
	check := &checkingExecutor{Executor: t.exec}
	var exec sweep.Executor = check
	var root span
	if runID != 0 {
		g.Base.Workload.Kind = tracedObjKind
		exec = tracedExecutor{Executor: check, rec: t.rec}
		t.runs.Store(runID)
		t.tracing.Store(true)
		defer t.tracing.Store(false)
		root = t.rec.begin("pass", 0, runID)
		ctx = withSpan(ctx, root)
	}
	var elapsed []float64
	var cells []int
	opts := sweep.Options{Workers: t.workers, Executor: exec, Progress: func(p sweep.Progress) {
		elapsed = append(elapsed, p.Elapsed.Seconds())
		cells = append(cells, p.CellIndex)
	}}
	mem := &memoryExecutor{Executor: exec}
	if memory {
		opts.Workers, opts.Executor = 1, mem
	}
	before := dcsim.WorkloadFetchStats()
	start := time.Now()
	res, err := sweep.Run(ctx, g, opts)
	wall := time.Since(start).Seconds()
	fetch := fetchDelta(before, dcsim.WorkloadFetchStats())
	if runID != 0 {
		t.rec.end(root)
	}
	if err != nil {
		return unit{}, layerRun{}, 0, err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return unit{}, layerRun{}, 0, err
	}
	u := unit{runSeconds: elapsed, runKeys: cells, wall: wall, attempted: len(elapsed), failed: check.failed,
		problems: check.errs, bytes: buf.Bytes()}
	for _, c := range res.Cells {
		u.energyKWh += c.EnergyJ.Mean * float64(c.EnergyJ.N) / 3.6e6
		u.violationPct += c.MeanViolationPct.Mean / float64(len(res.Cells))
	}
	if bad := diffRows(t.reference, u.bytes); bad > 0 {
		u.failed += bad
		u.problems = append(u.problems, fmt.Sprintf("%d report rows differ from the local-executor reference", bad))
	}
	var lr layerRun
	if runID != 0 {
		lr = sweepLayers(t.rec.ofRun(runID), wall, t.workers, fetch)
	}
	return u, lr, mem.peak, nil
}

func (t *sweepTarget) once(ctx context.Context, memory bool) (unit, uint64, error) {
	u, _, peak, err := t.pass(ctx, 0, memory)
	return u, peak, err
}

func (t *sweepTarget) traced(ctx context.Context, runID int64) (unit, layerRun, error) {
	u, lr, _, err := t.pass(ctx, runID, false)
	return u, lr, err
}

// diffRows counts the rows of got that differ from want, a missing or
// extra row counting once.
func diffRows(want, got []byte) int {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	bad := 0
	for i := 0; i < max(len(w), len(g)); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			bad++
		}
	}
	return bad
}

func fetchDelta(a, b model.FetchStats) model.FetchStats {
	return model.FetchStats{
		ChunkFetches:   b.ChunkFetches - a.ChunkFetches,
		CacheHits:      b.CacheHits - a.CacheHits,
		CacheEvictions: b.CacheEvictions - a.CacheEvictions,
		FetchRetries:   b.FetchRetries - a.FetchRetries,
	}
}

// registerTracedKind registers the decorated "trace-obj" kind once per
// process.
func registerTracedKind(rec *recorder) error {
	inner, err := dcsim.LookupWorkload("trace-obj")
	if err != nil {
		return err
	}
	if _, err := dcsim.LookupWorkload(tracedObjKind); err == nil {
		return errors.New("traced kind registered twice")
	}
	dcsim.RegisterWorkload(tracedObjKind, tracedKind{inner: inner, kind: "trace-obj", name: "tracedir.next", rec: rec})
	return nil
}
