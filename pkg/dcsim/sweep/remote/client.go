package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
)

// Executor implements sweep.Executor over a static set of HTTP workers,
// optionally mixed with in-process slots. Each worker runs at most
// InFlight cell-replicas at a time; when a worker fails at the transport
// level it is marked dead and its cell-replica is retried on a surviving
// worker (or a local slot). Runs are deterministic, so a retried replica
// reproduces the lost run exactly and the sweep's aggregate bytes do not
// depend on which worker ran what.
//
// Use it as sweep.Options.Executor:
//
//	exec, _ := remote.NewExecutor([]string{"http://host1:8070", "http://host2:8070"})
//	res, err := sweep.Run(ctx, grid, sweep.Options{
//		Workers:  exec.Capacity(),
//		Executor: exec,
//	})
type Executor struct {
	cfg      config
	backends []*backend
	// tokens holds one entry per free execution slot; pulling one both
	// bounds in-flight work per backend and picks the backend to run on.
	// Tokens of dead backends are dropped on pull instead of reissued.
	tokens chan *backend

	mu      sync.Mutex
	alive   int
	deadGen chan struct{} // closed and replaced on every death (broadcast)
}

// backend is one execution target: an HTTP worker, or the local process.
type backend struct {
	url   string               // base URL; "" for the local backend
	local *sweep.LocalExecutor // set on the local backend only
	slots int

	mu   sync.Mutex
	dead bool
}

func (b *backend) name() string {
	if b.local != nil {
		return "local"
	}
	return b.url
}

func (b *backend) isDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// config carries NewExecutor options.
type config struct {
	inFlight   int
	localSlots int
	client     *http.Client
	retry      RetryPolicy
}

// Option configures NewExecutor.
type Option func(*config)

// WithInFlight bounds concurrent requests per worker (default 4).
func WithInFlight(n int) Option { return func(c *config) { c.inFlight = n } }

// WithLocalSlots adds n in-process execution slots alongside the workers —
// the mixed local+remote mode. The local slots never die: with all workers
// down the sweep degrades to purely local execution.
func WithLocalSlots(n int) Option { return func(c *config) { c.localSlots = n } }

// WithHTTPClient replaces the default HTTP client (no timeout: runs are
// long and cancellation travels through the request context).
func WithHTTPClient(client *http.Client) Option { return func(c *config) { c.client = client } }

// WithRetry replaces the default retry policy (50ms base, 2s cap, seed 0)
// shaping the backoff between a failed dispatch and its re-execution.
func WithRetry(p RetryPolicy) Option { return func(c *config) { c.retry = p } }

// SplitURLList splits a comma-separated worker list (the "dcsim sweep
// -remote" flag format), trimming whitespace and dropping empty entries —
// the one parsing rule for flag and config strings, ahead of NewExecutor's
// per-URL normalization.
func SplitURLList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// NewExecutor builds an executor over the given worker base URLs (scheme
// optional; "host:port" means http). At least one worker URL or local slot
// is required.
func NewExecutor(workerURLs []string, opts ...Option) (*Executor, error) {
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
	if len(workerURLs) == 0 && cfg.localSlots == 0 {
		return nil, fmt.Errorf("remote: no workers and no local slots")
	}
	e := &Executor{cfg: cfg, deadGen: make(chan struct{})}
	total := 0
	for _, raw := range workerURLs {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("remote: empty worker URL")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		e.backends = append(e.backends, &backend{url: u, slots: cfg.inFlight})
		total += cfg.inFlight
	}
	if cfg.localSlots > 0 {
		e.backends = append(e.backends, &backend{local: &sweep.LocalExecutor{}, slots: cfg.localSlots})
		total += cfg.localSlots
	}
	e.alive = len(e.backends)
	e.tokens = make(chan *backend, total)
	for _, b := range e.backends {
		for i := 0; i < b.slots; i++ {
			e.tokens <- b
		}
	}
	return e, nil
}

// Capacity is the executor's total number of concurrent execution slots
// (workers × in-flight bound + local slots) — a natural Workers value for
// sweep.Options.
func (e *Executor) Capacity() int { return cap(e.tokens) }

// WorkerURLs lists the configured worker base URLs (normalized).
func (e *Executor) WorkerURLs() []string {
	var urls []string
	for _, b := range e.backends {
		if b.local == nil {
			urls = append(urls, b.url)
		}
	}
	return urls
}

// ExecuteCell implements sweep.Executor: run one cell-replica on some live
// backend, failing over to the survivors when a worker dies mid-cell. A
// failed dispatch re-executes after a bounded exponential backoff with
// deterministic jitter (see RetryPolicy); a worker answering 503 busy is
// retried after its Retry-After instead of being marked dead, and a
// draining worker is retired from the rotation without counting as a
// death. ExecuteCell returns a typed *Error for deterministic worker-side
// failures and an error wrapping ErrAllWorkersDown when no backend is
// left.
func (e *Executor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	var lastErr error
	attempt := 0
	for {
		b, err := e.acquire(ctx)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (cell %d replica %d; last worker failure: %v)",
					err, run.Cell.Index, run.Replica, lastErr)
			}
			return nil, err
		}
		res, err := e.runOn(ctx, b, run)
		if err == nil {
			e.release(b)
			return res, nil
		}
		if ctx.Err() != nil {
			// Cancellation, not a worker failure: the backend stays alive.
			e.release(b)
			return nil, err
		}
		var te *TransportError
		var we *Error
		switch {
		case errors.As(err, &te):
			// Transport-level failure: the worker is gone (or unusable).
			// Mark it dead — its tokens evaporate — and re-execute on a
			// survivor after the backoff.
			e.markDead(b)
			lastErr = fmt.Errorf("worker %s: %w", b.name(), te.Err)
			if err := sleepCtx(ctx, e.cfg.retry.Delay(run.Cell.Index, run.Replica, attempt)); err != nil {
				return nil, err
			}
			attempt++
		case errors.As(err, &we) && we.Code == CodeDraining:
			// The worker is winding down, not lost: retire it from the
			// rotation — steal nothing new to it — and reroute at once;
			// the survivors' capacity is intact, so no backoff applies.
			e.markDead(b)
			lastErr = fmt.Errorf("worker %s: draining", b.name())
		case errors.As(err, &we) && we.Code == CodeBusy:
			// Merely loaded, not dead: keep the worker alive and retry
			// after its own Retry-After hint or our backoff, whichever is
			// longer.
			e.release(b)
			d := e.cfg.retry.Delay(run.Cell.Index, run.Replica, attempt)
			if we.RetryAfter > d {
				d = we.RetryAfter
			}
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
			attempt++
		default:
			// A deterministic worker-side failure: retrying elsewhere
			// would fail identically.
			e.release(b)
			return nil, err
		}
	}
}

// sleepCtx waits d or until ctx ends, returning ctx's error in the latter
// case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire pulls a free slot on a live backend, blocking until one frees
// up, the context ends, or every backend is dead.
func (e *Executor) acquire(ctx context.Context) (*backend, error) {
	for {
		e.mu.Lock()
		alive, gen := e.alive, e.deadGen
		e.mu.Unlock()
		if alive == 0 {
			return nil, ErrAllWorkersDown
		}
		select {
		case b := <-e.tokens:
			if b.isDead() {
				continue // drop a dead backend's token
			}
			return b, nil
		case <-gen:
			// A backend died while we waited; re-check liveness.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a slot for a still-live backend.
func (e *Executor) release(b *backend) {
	if b.isDead() {
		return
	}
	e.tokens <- b
}

// markDead retires a backend: its in-flight token is not returned and its
// queued tokens are dropped on pull. Waiters blocked in acquire are woken
// so an all-dead executor fails fast instead of hanging.
func (e *Executor) markDead(b *backend) {
	b.mu.Lock()
	wasDead := b.dead
	b.dead = true
	b.mu.Unlock()
	if wasDead {
		return
	}
	e.mu.Lock()
	e.alive--
	close(e.deadGen)
	e.deadGen = make(chan struct{})
	e.mu.Unlock()
}

// runOn executes the cell-replica on one backend.
func (e *Executor) runOn(ctx context.Context, b *backend, run sweep.CellRun) (*dcsim.Result, error) {
	if b.local != nil {
		return b.local.ExecuteCell(ctx, run)
	}
	return RunCell(ctx, e.cfg.client, b.url, run)
}

// RunCell executes one cell-replica on the worker at baseURL — the POST
// /run leg of the worker protocol, shared by the static Executor here and
// the fleet executor in sweep/fleet. Failures classify three ways: a
// *TransportError (connection-level failure, 5xx, or a non-protocol
// response — the worker is gone or unusable, re-execute elsewhere), a
// typed *Error with CodeBusy or CodeDraining (a healthy worker declining —
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

// Preflight health-checks every configured worker — concurrently, each
// under its own timeout, so one blackholed worker costs one timeout, not
// one per worker — and returns an error naming the unreachable ones. It
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

// eachWorker runs check against every HTTP worker concurrently, each call
// under its own 5s timeout, and returns the failures in backend order.
func (e *Executor) eachWorker(ctx context.Context, check func(ctx context.Context, url string) error) []string {
	errs := make([]error, len(e.backends))
	var wg sync.WaitGroup
	for i, b := range e.backends {
		if b.local != nil {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			errs[i] = check(wctx, url)
		}(i, b.url)
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s (%v)", e.backends[i].url, err))
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
