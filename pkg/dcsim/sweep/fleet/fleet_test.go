package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/remote"
)

// tinyGrid is the same fast grid the sweep engine and remote tests use:
// 4 cells x 2 replicas of a 6-VM single-hour scenario.
func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Name: "tiny",
		Base: dcsim.Scenario{
			Workload:      dcsim.Workload{VMs: 6, Groups: 2, Hours: 1},
			MaxServers:    5,
			PeriodSamples: 240,
		},
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "corr-aware"}},
			{Field: "rescale_every", Values: []any{0, 12}},
		},
		Replicas: 2,
	}
}

// localGolden runs the grid in-process on one worker and returns the
// marshaled aggregate — the bytes every fleet shape must match.
func localGolden(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	res, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fastRetry keeps churn tests quick without disabling the backoff path.
var fastRetry = model.RetryPolicy{Base: time.Millisecond, Max: 4 * time.Millisecond}

// testRegistry builds a registry whose members never expire on their own:
// churn in these tests is injected, not accidental.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(Config{DefaultInterval: time.Minute, Logf: t.Logf})
	t.Cleanup(r.Close)
	return r
}

// startWorker serves one real remote.Server, optionally wrapped for fault
// injection, and returns its base URL.
func startWorker(t *testing.T, wrap func(h http.Handler) http.Handler) string {
	t.Helper()
	var h http.Handler = &remote.Server{}
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// join registers a worker URL and returns its member ID.
func join(t *testing.T, reg *Registry, url string) string {
	t.Helper()
	resp, err := reg.Register(RegisterRequest{URL: url})
	if err != nil {
		t.Fatalf("register %s: %v", url, err)
	}
	return resp.ID
}

// fleetRun sweeps the grid over the executor with a fixed fan-out.
func fleetRun(t *testing.T, g sweep.Grid, exec *remote.Executor, workers int, progress func(sweep.Progress)) (*sweep.Result, error) {
	t.Helper()
	return sweep.Run(context.Background(), g, sweep.Options{
		Workers:  workers,
		Executor: exec,
		Progress: progress,
	})
}

// TestFleetDeterminism is the tentpole acceptance gate: a grid swept over
// a 3-worker fleet marshals to exactly the bytes the 1-worker local sweep
// produces.
func TestFleetDeterminism(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := testRegistry(t)
	for i := 0; i < 3; i++ {
		join(t, reg, startWorker(t, nil))
	}
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(2), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 6, nil)
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("fleet x3 bytes differ from local x1")
	}
	if s := reg.Stats(); s.Alive != 3 || s.RunsStolen != 0 {
		t.Fatalf("stats after healthy sweep = %+v", s)
	}
}

// TestJoinMidSweepAbsorbsRuns starts the sweep against one worker and
// registers a second after the first run completes: the joiner must serve
// some of the remaining runs, and the bytes must not move.
func TestJoinMidSweepAbsorbsRuns(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := testRegistry(t)
	var served [2]atomic.Int32
	count := func(i int) func(h http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/run" {
					served[i].Add(1)
				}
				h.ServeHTTP(w, r)
			})
		}
	}
	join(t, reg, startWorker(t, count(0)))
	joinerURL := startWorker(t, count(1))

	// The Progress hook fires on the collector goroutine after each run;
	// the first one admits the joiner mid-sweep. (No t.Fatal off the test
	// goroutine — a failed registration surfaces as served[1] == 0.)
	var joined atomic.Bool
	onProgress := func(sweep.Progress) {
		if joined.CompareAndSwap(false, true) {
			if _, err := reg.Register(RegisterRequest{URL: joinerURL}); err != nil {
				t.Errorf("mid-sweep register: %v", err)
			}
		}
	}
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(1), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	// Two engine workers against one dispatch slot: until the joiner
	// registers, the second engine worker blocks in acquire — admission
	// must wake it.
	res, err := fleetRun(t, g, exec, 2, onProgress)
	if err != nil {
		t.Fatalf("sweep with mid-sweep join: %v", err)
	}
	if !joined.Load() {
		t.Fatal("join hook never fired")
	}
	if served[1].Load() == 0 {
		t.Fatal("joiner served no runs")
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("mid-sweep-join bytes differ from local x1")
	}
}

// TestWorkerKilledMidCellStolen kills one of two workers after its first
// run: its dispatched runs must be stolen back, re-executed on the
// survivor, counted in Stats.RunsStolen, and the bytes must not move.
func TestWorkerKilledMidCellStolen(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := testRegistry(t)
	var served atomic.Int32
	join(t, reg, startWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && served.Add(1) > 1 {
				panic(http.ErrAbortHandler) // the process is gone from now on
			}
			h.ServeHTTP(w, r)
		})
	}))
	join(t, reg, startWorker(t, nil))
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(1), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 2, nil)
	if err != nil {
		t.Fatalf("sweep should survive one member dying: %v", err)
	}
	if !res.Complete {
		t.Fatal("sweep incomplete after steal")
	}
	if served.Load() < 2 {
		t.Fatalf("fault injection never fired (worker served %d)", served.Load())
	}
	s := reg.Stats()
	if s.RunsStolen == 0 {
		t.Fatalf("no runs recorded stolen: %+v", s)
	}
	if s.Expirations == 0 || s.Alive != 1 {
		t.Fatalf("dead member not expired: %+v", s)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("steal-and-reexecute bytes differ from local x1")
	}
}

// TestAllWorkersLost pins the typed-error contract: when the whole fleet
// dies mid-sweep and no local slots exist, the sweep fails with
// ErrAllWorkersDown and the cells already completed are preserved.
func TestAllWorkersLost(t *testing.T) {
	g := tinyGrid()
	g.Axes = g.Axes[:1] // 2 cells
	g.Replicas = 1
	reg := testRegistry(t)
	var served atomic.Int32
	join(t, reg, startWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" && served.Add(1) > 1 {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	}))
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(1), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 1, nil)
	if !errors.Is(err, remote.ErrAllWorkersDown) {
		t.Fatalf("err = %v, want ErrAllWorkersDown", err)
	}
	if res == nil || res.Complete {
		t.Fatal("want a partial result")
	}
	if len(res.Cells) != 1 || res.Cells[0].Index != 0 {
		t.Fatalf("completed cells = %+v, want exactly cell 0 preserved", res.Cells)
	}
}

// TestExpiryStealsFromBlackholedWorker covers the failure transport
// errors cannot: a worker whose TCP stack is alive but whose process is
// frozen. It holds /run requests forever and never heartbeats; heartbeat
// expiry must cancel its member context, abort the hung dispatches, and
// steal the runs onto the healthy worker.
func TestExpiryStealsFromBlackholedWorker(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := NewRegistry(Config{MissThreshold: 2, MinInterval: time.Millisecond, Logf: t.Logf})
	defer reg.Close()

	blackURL := startWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" {
				// Drain the body first: the server only watches for the
				// client going away once the request has been consumed.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done() // hold the request until the client gives up
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	// The blackholed worker registers with a fast heartbeat it will never
	// send: ~2×25ms later it expires. The healthy one gets a long interval.
	if _, err := reg.Register(RegisterRequest{URL: blackURL, IntervalMS: 25}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(RegisterRequest{URL: startWorker(t, nil), IntervalMS: 60_000}); err != nil {
		t.Fatal(err)
	}
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(2), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 4, nil)
	if err != nil {
		t.Fatalf("sweep should survive a blackholed member: %v", err)
	}
	s := reg.Stats()
	if s.RunsStolen == 0 || s.Expirations == 0 || s.HeartbeatMisses < 2 {
		t.Fatalf("expiry steal not recorded: %+v", s)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("blackhole-steal bytes differ from local x1")
	}
}

// TestDrainingWorkerGetsNothingNew: a member that is draining from the
// start serves zero runs — the fleet routes around it without counting a
// steal — and the bytes do not move.
func TestDrainingWorkerGetsNothingNew(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := testRegistry(t)
	var served atomic.Int32
	join(t, reg, startWorker(t, nil))
	drainingURL := startWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/run" {
				served.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	if _, err := reg.Register(RegisterRequest{URL: drainingURL, Status: StateDraining}); err != nil {
		t.Fatal(err)
	}
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(2), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() != 0 {
		t.Fatalf("draining member served %d runs, want 0", served.Load())
	}
	s := reg.Stats()
	if s.RunsStolen != 0 || s.Draining != 1 || s.Alive != 1 {
		t.Fatalf("stats = %+v, want 1 alive + 1 draining, nothing stolen", s)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("route-around-draining bytes differ from local x1")
	}
}

// TestServerSideDrainReroutes covers drain discovered on the data path: a
// member whose registry record says alive but whose server answers 503
// draining is flagged and routed around, not expired.
func TestServerSideDrainReroutes(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := testRegistry(t)
	drainingSrv := &remote.Server{}
	drainingSrv.SetDraining(true)
	ts := httptest.NewServer(drainingSrv)
	t.Cleanup(ts.Close)
	id := join(t, reg, ts.URL)
	join(t, reg, startWorker(t, nil))
	exec, err := remote.NewSetExecutor(reg, remote.WithInFlight(1), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Stats()
	if s.Expirations != 0 || s.RunsStolen != 0 {
		t.Fatalf("drain rejection treated as death: %+v", s)
	}
	var state string
	for _, m := range reg.Members() {
		if m.ID == id {
			state = m.State
		}
	}
	if state != StateDraining {
		t.Fatalf("rejected-by-drain member state = %q, want draining", state)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("server-side-drain bytes differ from local x1")
	}
}

// TestMixedLocalFleetDegrade: with local slots configured, a fleet whose
// only worker is already dead still completes the sweep purely locally.
func TestMixedLocalFleetDegrade(t *testing.T) {
	g := tinyGrid()
	golden := localGolden(t, g)
	reg := testRegistry(t)
	closed := httptest.NewServer(&remote.Server{})
	closedURL := closed.URL
	closed.Close()
	join(t, reg, closedURL)
	exec, err := remote.NewSetExecutor(reg, remote.WithLocalSlots(2), remote.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleetRun(t, g, exec, 2, nil)
	if err != nil {
		t.Fatalf("mixed sweep should degrade to local: %v", err)
	}
	data, _ := res.JSON()
	if !bytes.Equal(golden, data) {
		t.Fatal("degraded-to-local bytes differ from local x1")
	}
	if s := reg.Stats(); s.Alive != 0 || s.Expirations != 1 {
		t.Fatalf("dead worker not expired: %+v", s)
	}
}

// TestEmptyFleetNoLocalFailsFast: dispatch against a fleet that never had
// members (and no local slots) fails with ErrAllWorkersDown instead of
// blocking for a joiner that may never come.
func TestEmptyFleetNoLocalFailsFast(t *testing.T) {
	reg := testRegistry(t)
	exec, err := remote.NewSetExecutor(reg)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := tinyGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.ExecuteCell(context.Background(), sweep.CellRun{Cell: cells[0], SeedStride: 1})
	if !errors.Is(err, remote.ErrAllWorkersDown) {
		t.Fatalf("err = %v, want ErrAllWorkersDown", err)
	}
}
