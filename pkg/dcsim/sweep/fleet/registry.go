package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/pkg/dcsim/sweep/remote"
)

// Config tunes a Registry.
type Config struct {
	// MissThreshold is how many consecutive heartbeats a member may miss
	// before it expires. 0 selects 3.
	MissThreshold int
	// DefaultInterval is the heartbeat interval granted to members whose
	// registration names none. 0 selects 2s.
	DefaultInterval time.Duration
	// MinInterval floors the interval a member may request, protecting
	// the coordinator from a worker heartbeating in a hot loop. 0 selects
	// 10ms.
	MinInterval time.Duration
	// Logf, when set, receives one line per membership change. Nil means
	// silent.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero-value config.
func (c Config) withDefaults() Config {
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.DefaultInterval <= 0 {
		c.DefaultInterval = 2 * time.Second
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 10 * time.Millisecond
	}
	return c
}

// member is one worker's registry record. Registry.mu guards every
// mutable field; the pointer outlives removal (an expiry timer may still
// hold it), with gone marking the record dead.
type member struct {
	id          string
	url         string
	fingerprint string
	interval    time.Duration
	joined      time.Time

	draining   bool
	lastBeat   time.Time
	missed     int
	inflight   int64 // self-reported via heartbeat
	dispatched int   // coordinator-side: runs the executor has on it
	gone       bool

	timer  *time.Timer     // expiry watchdog, reset on every beat
	ctx    context.Context // cancelled when the member is removed
	cancel context.CancelFunc
}

// Registry is the coordinator-side fleet membership: who is in the
// fleet, how fresh their heartbeats are, and the churn counters. It is a
// remote.WorkerSet, so remote.NewSetExecutor dispatches a sweep over
// whatever members it holds. It is safe for concurrent use by the HTTP
// handler, the executor, and the per-member expiry timers.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member // by ID
	byURL   map[string]*member
	order   []*member // join order, routing tie-breaker
	seq     int
	changed chan struct{} // closed and replaced on every membership/slot change
	closed  bool

	registrations uint64
	expirations   uint64
	misses        uint64
	stolen        uint64
}

var _ remote.WorkerSet = (*Registry)(nil)

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		members: map[string]*member{},
		byURL:   map[string]*member{},
		changed: make(chan struct{}),
	}
}

// logf logs through cfg.Logf when set.
func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// broadcastLocked wakes everyone waiting on membership or slot changes;
// callers hold r.mu.
func (r *Registry) broadcastLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// Changed implements remote.WorkerSet: it returns the channel closed at
// the next membership or slot change.
func (r *Registry) Changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.changed
}

// Register admits a worker into the fleet (or refreshes it: registering
// a URL already present replaces the old record, as a restarted worker
// does). The response names the member ID heartbeats must carry and the
// granted interval.
func (r *Registry) Register(req RegisterRequest) (RegisterResponse, error) {
	url, err := remote.NormalizeURL(req.URL)
	if err != nil {
		return RegisterResponse{}, err
	}
	interval := time.Duration(req.IntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = r.cfg.DefaultInterval
	}
	if interval < r.cfg.MinInterval {
		interval = r.cfg.MinInterval
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return RegisterResponse{}, ErrClosed
	}
	if old := r.byURL[url]; old != nil {
		// A restarted (or amnesiac) worker re-announcing itself: the old
		// incarnation's runs are lost either way, so retire it silently
		// and let the executor steal them onto the new member set.
		r.removeLocked(old, "replaced by re-registration")
	}
	r.seq++
	now := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	m := &member{
		id:          fmt.Sprintf("w%d", r.seq),
		url:         url,
		fingerprint: req.Capabilities,
		interval:    interval,
		joined:      now,
		lastBeat:    now,
		draining:    req.Status == StateDraining || req.Status == "draining",
		ctx:         ctx,
		cancel:      cancel,
	}
	m.timer = time.AfterFunc(watchdog(interval), func() { r.onBeatDue(m) })
	r.members[m.id] = m
	r.byURL[url] = m
	r.order = append(r.order, m)
	r.registrations++
	// Capability drift is worth a line the moment it appears: two members
	// with different fingerprints cannot both serve every grid.
	for _, other := range r.order {
		if other != m && !other.gone && other.fingerprint != "" && m.fingerprint != "" &&
			other.fingerprint != m.fingerprint {
			r.logf("fleet: member %s (%s) capabilities differ from %s (%s) — registry drift",
				m.id, m.url, other.id, other.url)
			break
		}
	}
	r.logf("fleet: member %s joined: %s (heartbeat %s, expires after %d missed beats)",
		m.id, m.url, interval, r.cfg.MissThreshold)
	r.broadcastLocked()
	return RegisterResponse{
		ID:            m.id,
		IntervalMS:    interval.Milliseconds(),
		MissThreshold: r.cfg.MissThreshold,
	}, nil
}

// Heartbeat records one beat from a member: freshness, status, and the
// worker's self-reported load. An unknown (typically expired) member gets
// ErrUnknownMember — the cue to re-register.
func (r *Registry) Heartbeat(id string, hb HeartbeatRequest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone {
		return fmt.Errorf("%w: %s", ErrUnknownMember, id)
	}
	m.lastBeat = time.Now()
	m.missed = 0
	m.inflight = hb.Inflight
	m.timer.Reset(watchdog(m.interval))
	switch hb.Status {
	case "", StateAlive, "ok":
		if m.draining {
			m.draining = false
			r.logf("fleet: member %s (%s) back to alive", m.id, m.url)
			r.broadcastLocked()
		}
	case StateDraining:
		if !m.draining {
			m.draining = true
			r.logf("fleet: member %s (%s) draining — no new runs routed to it", m.id, m.url)
			r.broadcastLocked()
		}
	}
	return nil
}

// onBeatDue is a member's expiry watchdog firing: one beat overdue. After
// MissThreshold consecutive misses the member expires; until then the
// watchdog re-arms for the next interval.
func (r *Registry) onBeatDue(m *member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gone || r.closed {
		return
	}
	m.missed++
	r.misses++
	if m.missed >= r.cfg.MissThreshold {
		r.expireLocked(m, fmt.Sprintf("missed %d heartbeats", m.missed))
		return
	}
	r.logf("fleet: member %s (%s) missed heartbeat %d/%d", m.id, m.url, m.missed, r.cfg.MissThreshold)
	m.timer.Reset(watchdog(m.interval))
}

// watchdog is the deadline a beat must arrive by: the member's interval
// plus 50% slack, so a beat delayed only by its own HTTP round trip or
// scheduling jitter is not counted as missed.
func watchdog(interval time.Duration) time.Duration {
	return interval + interval/2
}

// ReportFailure implements remote.WorkerSet: a dispatch to the member was
// lost — a transport failure, or the member removed mid-run — and the run
// is stolen back (counted in Stats.RunsStolen). A member still present is
// removed on that hard evidence from the data path; it counts as an
// expiration and, like expiry, cancels the member's context so other
// in-flight dispatches to it abort and get stolen too.
func (r *Registry) ReportFailure(id string, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stolen++
	m, ok := r.members[id]
	if !ok || m.gone {
		return
	}
	r.expireLocked(m, fmt.Sprintf("transport failure: %v", cause))
}

// MarkDraining implements remote.WorkerSet: it flags a member as draining
// from the data path — a worker answering 503 draining before its
// heartbeat said so.
func (r *Registry) MarkDraining(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone || m.draining {
		return
	}
	m.draining = true
	r.logf("fleet: member %s (%s) draining (reported by dispatch)", m.id, m.url)
	r.broadcastLocked()
}

// Deregister removes a member at its own request (a worker leaving
// cleanly after its drain). It reports whether the ID was known.
func (r *Registry) Deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone {
		return false
	}
	r.removeLocked(m, "deregistered")
	r.broadcastLocked()
	return true
}

// expireLocked removes a member the fleet lost (missed beats or transport
// failure); callers hold r.mu.
func (r *Registry) expireLocked(m *member, reason string) {
	r.expirations++
	r.removeLocked(m, reason)
	r.broadcastLocked()
}

// removeLocked unlinks a member and cancels its context; callers hold
// r.mu and broadcast afterwards if the removal should wake waiters.
func (r *Registry) removeLocked(m *member, reason string) {
	m.gone = true
	m.timer.Stop()
	m.cancel()
	delete(r.members, m.id)
	if r.byURL[m.url] == m {
		delete(r.byURL, m.url)
	}
	for i, o := range r.order {
		if o == m {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.logf("fleet: member %s left: %s (%s; %d dispatched run(s) to steal)",
		m.id, m.url, reason, m.dispatched)
}

// AcquireSlot implements remote.WorkerSet: it claims one dispatch slot on
// the least-loaded routable member (alive, not draining, under the
// per-member limit), join order breaking ties. The worker's Lost context
// is the member's, cancelled when the registry removes it. With no slot
// free it returns nil and the count of routable members — 0 meaning the
// fleet is empty, a positive count meaning every member is at capacity.
func (r *Registry) AcquireSlot(limit int) (*remote.Worker, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	routable := 0
	var pick *member
	for _, m := range r.order {
		if m.gone || m.draining {
			continue
		}
		routable++
		if m.dispatched >= limit {
			continue
		}
		if pick == nil || m.dispatched < pick.dispatched {
			pick = m
		}
	}
	if pick == nil {
		return nil, routable
	}
	pick.dispatched++
	return &remote.Worker{ID: pick.id, URL: pick.url, Lost: pick.ctx}, routable
}

// ReleaseSlot implements remote.WorkerSet: it returns a dispatch slot and
// wakes slot waiters.
func (r *Registry) ReleaseSlot(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok && m.dispatched > 0 {
		m.dispatched--
	}
	r.broadcastLocked()
}

// Members snapshots the current membership in join order.
func (r *Registry) Members() []MemberInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberInfo, 0, len(r.order))
	for _, m := range r.order {
		state := StateAlive
		if m.draining {
			state = StateDraining
		}
		out = append(out, MemberInfo{
			ID:           m.id,
			URL:          m.url,
			State:        state,
			Capabilities: m.fingerprint,
			IntervalMS:   m.interval.Milliseconds(),
			Joined:       m.joined,
			LastBeat:     m.lastBeat,
			MissedBeats:  m.missed,
			Inflight:     m.inflight,
			Dispatched:   m.dispatched,
		})
	}
	return out
}

// Stats snapshots the fleet counters and gauges.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Registrations:   r.registrations,
		Expirations:     r.expirations,
		HeartbeatMisses: r.misses,
		RunsStolen:      r.stolen,
	}
	for _, m := range r.order {
		if m.draining {
			s.Draining++
		} else {
			s.Alive++
		}
	}
	return s
}

// WaitForMembers blocks until at least n routable (alive, non-draining)
// members are registered, or ctx ends.
func (r *Registry) WaitForMembers(ctx context.Context, n int) error {
	for {
		r.mu.Lock()
		routable := 0
		for _, m := range r.order {
			if !m.gone && !m.draining {
				routable++
			}
		}
		ch := r.changed
		closed := r.closed
		r.mu.Unlock()
		if routable >= n {
			return nil
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("fleet: waiting for %d worker(s), have %d: %w", n, routable, ctx.Err())
		}
	}
}

// Close shuts the registry down: every member is removed (their contexts
// cancelled), timers stopped, and further registrations rejected.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, m := range append([]*member(nil), r.order...) {
		r.removeLocked(m, "registry closed")
	}
	r.broadcastLocked()
}
