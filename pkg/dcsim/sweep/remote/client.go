package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// Executor implements sweep.Executor over a WorkerSet, optionally mixed
// with in-process slots. Each worker runs at most WithInFlight
// cell-replicas at a time; a worker that fails at the transport level, or
// that its set drops mid-run, leaves the rotation and its cell-replica is
// re-executed on a survivor (or a local slot). Runs are deterministic, so
// a retried replica reproduces the lost run exactly and the sweep's
// aggregate bytes do not depend on which worker ran what.
//
// Use it as sweep.Options.Executor:
//
//	exec, _ := remote.NewExecutor([]string{"http://host1:8070", "http://host2:8070"})
//	res, err := sweep.Run(ctx, grid, sweep.Options{
//		Workers:  exec.Capacity(),
//		Executor: exec,
//	})
type Executor struct {
	set  WorkerSet
	urls []string // the static list NewExecutor was given, normalized
	cfg  config

	local       sweep.LocalExecutor
	localTokens chan struct{} // one entry per free local slot; nil without WithLocalSlots
}

// config carries executor options.
type config struct {
	inFlight   int
	localSlots int
	client     *http.Client
	retry      model.RetryPolicy
}

// Option configures NewExecutor and NewSetExecutor.
type Option func(*config)

// WithInFlight bounds concurrent requests per worker (default 4).
func WithInFlight(n int) Option { return func(c *config) { c.inFlight = n } }

// WithLocalSlots adds n in-process execution slots alongside the workers —
// the mixed local+remote mode. The local slots never die: with every
// worker gone the sweep degrades to purely local execution.
func WithLocalSlots(n int) Option { return func(c *config) { c.localSlots = n } }

// WithHTTPClient replaces the default HTTP client (no timeout: runs are
// long and cancellation travels through the request context).
func WithHTTPClient(client *http.Client) Option { return func(c *config) { c.client = client } }

// WithRetry replaces the default retry policy (50ms base, 2s cap) shaping
// the backoff between a failed dispatch and its re-execution.
func WithRetry(p model.RetryPolicy) Option { return func(c *config) { c.retry = p } }

// NewExecutor builds an executor over a static list of worker base URLs
// (scheme optional; "host:port" means http). The workers never expire; one
// that fails at the transport level or drains is retired for the rest of
// the executor's life. At least one worker URL or local slot is required,
// and a malformed or duplicate URL is rejected.
func NewExecutor(workerURLs []string, opts ...Option) (*Executor, error) {
	set, err := newStaticSet(workerURLs)
	if err != nil {
		return nil, err
	}
	e, err := NewSetExecutor(set, opts...)
	if err != nil {
		return nil, err
	}
	if len(set.workers) == 0 && e.cfg.localSlots == 0 {
		return nil, fmt.Errorf("remote: no workers and no local slots")
	}
	for _, w := range set.workers {
		e.urls = append(e.urls, w.URL)
	}
	return e, nil
}

// NewSetExecutor builds an executor over any WorkerSet — typically a
// sweep/fleet Registry, whose members join and leave as the sweep runs.
// The set may be empty at construction: dispatch waits for capacity, and
// only an ExecuteCell that finds no routable worker (and no local slots)
// fails with ErrAllWorkersDown.
func NewSetExecutor(set WorkerSet, opts ...Option) (*Executor, error) {
	if set == nil {
		return nil, fmt.Errorf("remote: nil worker set")
	}
	cfg := config{inFlight: 4, client: &http.Client{}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.inFlight < 1 {
		return nil, fmt.Errorf("remote: in-flight bound must be positive, got %d", cfg.inFlight)
	}
	if cfg.localSlots < 0 {
		return nil, fmt.Errorf("remote: local slots must be non-negative, got %d", cfg.localSlots)
	}
	e := &Executor{set: set, cfg: cfg}
	if cfg.localSlots > 0 {
		e.localTokens = make(chan struct{}, cfg.localSlots)
		for i := 0; i < cfg.localSlots; i++ {
			e.localTokens <- struct{}{}
		}
	}
	return e, nil
}

// Capacity is the executor's number of concurrent execution slots at
// construction (static workers × in-flight bound + local slots) — a
// natural Workers value for sweep.Options. An elastic set's capacity
// changes as members come and go; Capacity counts only the local slots
// there.
func (e *Executor) Capacity() int { return len(e.urls)*e.cfg.inFlight + e.cfg.localSlots }

// WorkerURLs lists the static worker base URLs (normalized); nil for an
// executor over an elastic set.
func (e *Executor) WorkerURLs() []string { return slices.Clone(e.urls) }

// ExecuteCell implements sweep.Executor: run one cell-replica on some
// routable worker or local slot, failing over to the survivors when a
// worker dies mid-cell. A transport failure re-executes after a bounded
// exponential backoff with deterministic jitter (see model.RetryPolicy); a
// worker answering 503 busy is retried after its Retry-After instead of
// being dropped; a draining worker is routed around without counting as a
// death; a worker its set dropped mid-run has the run stolen back and
// re-dispatched at once. ExecuteCell returns a typed *Error for
// deterministic worker-side failures and an error wrapping
// ErrAllWorkersDown when no worker is left.
func (e *Executor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	var lastErr error
	attempt := 0
	backoff := func(floor time.Duration) error {
		d := max(e.cfg.retry.Delay(attempt, fmt.Sprintf("cell %d replica %d", run.Cell.Index, run.Replica)), floor)
		attempt++
		return model.Sleep(ctx, d)
	}
	for {
		w, err := e.acquire(ctx)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (cell %d replica %d; last worker failure: %v)",
					err, run.Cell.Index, run.Replica, lastErr)
			}
			return nil, err
		}
		if w == nil {
			// A local slot: it cannot die, so any failure is final.
			res, err := e.local.ExecuteCell(ctx, run)
			e.localTokens <- struct{}{}
			return res, err
		}
		res, err := e.dispatch(ctx, w, run)
		e.set.ReleaseSlot(w.ID)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			// Cancellation, not a worker failure.
			return nil, err
		}
		var te *TransportError
		var we *Error
		switch {
		case errors.As(err, &we) && we.Code == CodeDraining:
			// Winding down, not lost: route around it and re-dispatch at
			// once; the survivors' capacity is intact, so no backoff.
			e.set.MarkDraining(w.ID)
			lastErr = fmt.Errorf("worker %s: draining", w.URL)
		case errors.As(err, &we) && we.Code == CodeBusy:
			// Loaded, not dead: wait out its Retry-After hint or our
			// backoff, whichever is longer, and try again.
			if err := backoff(we.RetryAfter); err != nil {
				return nil, err
			}
		case errors.As(err, &we):
			// A deterministic worker-side failure: retrying elsewhere
			// would fail identically.
			return nil, err
		case w.Lost != nil && w.Lost.Err() != nil:
			// The set dropped the worker mid-dispatch and the request
			// aborted: steal the run back and re-dispatch at once.
			e.set.ReportFailure(w.ID, err)
			lastErr = fmt.Errorf("worker %s lost mid-run: %v", w.URL, err)
		case errors.As(err, &te):
			// Transport-level failure: the worker is gone or unusable.
			// Drop it and re-execute on a survivor after the backoff.
			e.set.ReportFailure(w.ID, te.Err)
			lastErr = fmt.Errorf("worker %s: %w", w.URL, te.Err)
			if err := backoff(0); err != nil {
				return nil, err
			}
		default:
			// Neither typed nor transport: a client-side failure (the run
			// failing to marshal) no other worker would fare better with.
			return nil, err
		}
	}
}

// acquire claims an execution slot: a dispatch slot on some routable
// worker, or a local token (nil worker). It blocks while every worker is
// merely busy, and fails with ErrAllWorkersDown only when no routable
// worker exists and no local slots are configured.
func (e *Executor) acquire(ctx context.Context) (*Worker, error) {
	for {
		// Fetch the change channel before inspecting the set: a change
		// landing between the check and the wait closes this channel, so
		// the wakeup cannot be missed.
		ch := e.set.Changed()
		w, routable := e.set.AcquireSlot(e.cfg.inFlight)
		if w != nil {
			return w, nil
		}
		if routable == 0 && e.localTokens == nil {
			return nil, ErrAllWorkersDown
		}
		// A nil localTokens never delivers, leaving the set to wake us.
		select {
		case <-e.localTokens:
			return nil, nil
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dispatch executes the cell-replica on one worker. When the worker's set
// can drop it, the request runs under a context merged with w.Lost, so a
// worker expiring mid-dispatch — even a blackholed one whose TCP
// connection would otherwise hang — aborts the request promptly.
func (e *Executor) dispatch(ctx context.Context, w *Worker, run sweep.CellRun) (*dcsim.Result, error) {
	if w.Lost != nil {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(w.Lost, cancel)
		defer stop()
		ctx = rctx
	}
	return RunCell(ctx, e.cfg.client, w.URL, run)
}

// RunCell executes one cell-replica on the worker at baseURL — the POST
// /run leg of the worker protocol the Executor dispatches through.
// Failures classify three ways: a *TransportError (connection-level
// failure, 5xx, or a non-protocol response — the worker is gone or
// unusable, re-execute elsewhere), a typed *Error with CodeBusy or CodeDraining (a healthy worker declining —
// wait or reroute, carrying any Retry-After hint), or any other typed
// *Error (deterministic, never retried).
func RunCell(ctx context.Context, client *http.Client, baseURL string, run sweep.CellRun) (*dcsim.Result, error) {
	body, err := json.Marshal(run)
	if err != nil {
		return nil, fmt.Errorf("remote: marshal cell run: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+runPath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("remote: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, &TransportError{err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, &TransportError{fmt.Errorf("read response: %w", err)}
	}
	var envelope runResponse
	decodeErr := json.Unmarshal(data, &envelope)
	switch {
	case resp.StatusCode == http.StatusOK && decodeErr == nil && envelope.Result != nil:
		return envelope.Result, nil
	case decodeErr == nil && envelope.Error != nil && resp.StatusCode == http.StatusServiceUnavailable &&
		(envelope.Error.Code == CodeBusy || envelope.Error.Code == CodeDraining):
		// A healthy worker declining: busy (retry after the hint) or
		// draining (reroute). Not a death.
		envelope.Error.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, envelope.Error
	case decodeErr == nil && envelope.Error != nil && resp.StatusCode < http.StatusInternalServerError:
		// A typed worker-side failure: deterministic, so not retryable.
		return nil, envelope.Error
	default:
		// 5xx, a truncated body, or a non-protocol response: treat the
		// worker as broken and fail over.
		return nil, &TransportError{fmt.Errorf("status %d: %s", resp.StatusCode, snippet(data))}
	}
}

// parseRetryAfter reads a Retry-After header's delay-seconds form ("" or
// unparsable means no hint; the HTTP-date form is not worth supporting
// between our own binaries).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// maxBodyBytes bounds every body either side of the protocol reads — run
// requests on the worker; run results, capability listings, and health
// probes on the client — so a confused or hostile peer cannot balloon a
// long-lived process's memory.
const maxBodyBytes = 64 << 20

// snippet bounds an HTTP body for error messages.
func snippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}

// FetchHealth retrieves one worker's /healthz payload: liveness plus the
// in-flight run count and capabilities fingerprint (fields old workers
// omit; they decode to zero values).
func FetchHealth(ctx context.Context, client *http.Client, baseURL string) (HealthInfo, error) {
	var info HealthInfo
	err := getJSON(ctx, client, baseURL+healthPath, &info)
	return info, err
}

// Health checks one worker's liveness endpoint.
func Health(ctx context.Context, client *http.Client, baseURL string) error {
	info, err := FetchHealth(ctx, client, baseURL)
	if err != nil {
		return err
	}
	if info.Status != StatusOK {
		return fmt.Errorf("remote: worker %s health = %q", baseURL, info.Status)
	}
	return nil
}

// FetchCapabilities retrieves a worker's registry listing.
func FetchCapabilities(ctx context.Context, client *http.Client, baseURL string) (Capabilities, error) {
	var caps Capabilities
	err := getJSON(ctx, client, baseURL+capabilitiesPath, &caps)
	return caps, err
}

// Preflight health-checks every static worker — concurrently, each under
// its own timeout, so one blackholed worker costs one timeout, not one per
// worker — and returns an error naming the unreachable ones. It
// does not mark anything dead: a worker that is merely slow to start may
// well serve the sweep.
func (e *Executor) Preflight(ctx context.Context) error {
	bad := e.eachWorker(ctx, func(ctx context.Context, url string) error {
		return Health(ctx, e.cfg.client, url)
	})
	if len(bad) > 0 {
		return fmt.Errorf("remote: unreachable workers: %s", strings.Join(bad, "; "))
	}
	return nil
}

// PreflightGrid is Preflight plus a registry check: every worker must be
// healthy and its capability listing must resolve every component name the
// grid's cells select, so a grid naming an out-of-tree component some
// worker binary never registered fails here — before any fan-out — naming
// the worker and the missing components, instead of aborting mid-sweep.
func (e *Executor) PreflightGrid(ctx context.Context, g sweep.Grid) error {
	cells, err := g.Cells()
	if err != nil {
		return err
	}
	type need struct{ kind, name string }
	needs := map[need]bool{}
	for _, c := range cells {
		sc := c.Scenario
		needs[need{"policy", sc.Policy}] = true
		needs[need{"governor", sc.Governor}] = true
		needs[need{"predictor", sc.Predictor}] = true
		needs[need{"server", sc.Server}] = true
		needs[need{"workload", sc.Workload.Kind}] = true
	}
	bad := e.eachWorker(ctx, func(ctx context.Context, url string) error {
		if err := Health(ctx, e.cfg.client, url); err != nil {
			return err
		}
		caps, err := FetchCapabilities(ctx, e.cfg.client, url)
		if err != nil {
			return err
		}
		has := map[need]bool{}
		for kind, names := range map[string][]string{
			"policy": caps.Policies, "governor": caps.Governors,
			"predictor": caps.Predictors, "server": caps.Servers,
			"workload": caps.Workloads,
		} {
			for _, n := range names {
				has[need{kind, n}] = true
			}
		}
		var missing []string
		for n := range needs {
			if !has[n] {
				missing = append(missing, n.kind+" "+n.name)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return fmt.Errorf("missing %s", strings.Join(missing, ", "))
		}
		return nil
	})
	if len(bad) > 0 {
		return fmt.Errorf("remote: workers cannot serve the grid: %s", strings.Join(bad, "; "))
	}
	return nil
}

// eachWorker runs check against every static worker concurrently, each
// call under its own 5s timeout, and returns the failures in list order.
func (e *Executor) eachWorker(ctx context.Context, check func(ctx context.Context, url string) error) []string {
	errs := make([]error, len(e.urls))
	var wg sync.WaitGroup
	for i, url := range e.urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			errs[i] = check(wctx, url)
		}()
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s (%v)", e.urls[i], err))
		}
	}
	return bad
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("remote: build request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("remote: GET %s: status %d: %s", url, resp.StatusCode, snippet(data))
	}
	// The same body bound runOn applies: an OK status from a confused
	// endpoint must not stream an unbounded body into the decoder.
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("remote: GET %s: decode: %w", url, err)
	}
	return nil
}
