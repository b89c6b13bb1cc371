package remote

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
)

// Worker is one dispatch target a WorkerSet hands out.
type Worker struct {
	// ID names the worker to its set in ReleaseSlot, ReportFailure and
	// MarkDraining. It is unique per incarnation: a restarted fleet worker
	// gets a new one.
	ID string
	// URL is the worker's normalized base URL.
	URL string
	// Lost, when non-nil, is done once the set drops the worker — heartbeat
	// expiry, a failure reported by a sibling dispatch, or a replacing
	// re-registration. The Executor aborts dispatches in flight to it and
	// re-executes their runs elsewhere. Nil means the set never drops a
	// worker behind the Executor's back.
	Lost context.Context
}

// WorkerSet is the membership an Executor dispatches over. NewExecutor
// builds a static one from a URL list; sweep/fleet's Registry is the
// elastic one. Implementations must be safe for concurrent use.
type WorkerSet interface {
	// AcquireSlot claims one dispatch slot on the least-loaded routable
	// worker — present, not draining, with fewer than limit dispatches —
	// join order breaking ties. With no slot free it returns nil and the
	// number of routable workers: 0 means none is left, a positive count
	// that every one is at capacity and the caller should wait on Changed.
	AcquireSlot(limit int) (*Worker, int)
	// ReleaseSlot returns a slot AcquireSlot handed out.
	ReleaseSlot(id string)
	// ReportFailure reports a dispatch lost on the worker — a transport
	// failure, or the worker dropped mid-run. The set stops routing to it.
	ReportFailure(id string, cause error)
	// MarkDraining reports a worker that declined a run as draining: it
	// gets nothing new.
	MarkDraining(id string)
	// Changed returns a channel closed at the next membership or slot
	// change.
	Changed() <-chan struct{}
}

// SplitURLList splits a comma-separated worker list (the "dcsim sweep
// -remote" flag format), trimming whitespace and dropping empty entries —
// the one parsing rule for flag and config strings, ahead of
// NormalizeURL.
func SplitURLList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// NormalizeURL is the one worker-URL rule both worker sets apply: trim
// whitespace, default a missing scheme to http, require an http or https
// URL naming a host, and drop trailing slashes.
func NormalizeURL(raw string) (string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return "", errors.New("remote: empty worker URL")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("remote: worker URL %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Hostname() == "" {
		return "", fmt.Errorf("remote: worker URL %q: want http(s)://host[:port]", raw)
	}
	return strings.TrimRight(s, "/"), nil
}

// staticSet is the WorkerSet NewExecutor builds: a fixed list of workers
// that never expire. A transport failure or a drain retires a worker for
// good — nothing heartbeats to bring it back.
type staticSet struct {
	mu      sync.Mutex
	workers []staticWorker // list order, the routing tie-breaker
	changed chan struct{}  // closed and replaced on every change (broadcast)
}

type staticWorker struct {
	Worker
	dispatched int
	retired    bool
}

// newStaticSet normalizes the URLs, rejecting a malformed one or a
// duplicate: two entries for one worker would double its in-flight bound.
func newStaticSet(urls []string) (*staticSet, error) {
	s := &staticSet{changed: make(chan struct{})}
	seen := map[string]bool{}
	for _, raw := range urls {
		u, err := NormalizeURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("remote: duplicate worker URL %s", u)
		}
		seen[u] = true
		s.workers = append(s.workers, staticWorker{Worker: Worker{ID: u, URL: u}})
	}
	return s, nil
}

// AcquireSlot implements WorkerSet.
func (s *staticSet) AcquireSlot(limit int) (*Worker, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	routable := 0
	var pick *staticWorker
	for i := range s.workers {
		w := &s.workers[i]
		if w.retired {
			continue
		}
		routable++
		if w.dispatched < limit && (pick == nil || w.dispatched < pick.dispatched) {
			pick = w
		}
	}
	if pick == nil {
		return nil, routable
	}
	pick.dispatched++
	return &pick.Worker, routable
}

// ReleaseSlot implements WorkerSet.
func (s *staticSet) ReleaseSlot(id string) {
	s.update(id, func(w *staticWorker) { w.dispatched-- })
}

// ReportFailure implements WorkerSet: the worker is retired.
func (s *staticSet) ReportFailure(id string, _ error) {
	s.update(id, func(w *staticWorker) { w.retired = true })
}

// MarkDraining implements WorkerSet: the worker is retired.
func (s *staticSet) MarkDraining(id string) {
	s.update(id, func(w *staticWorker) { w.retired = true })
}

// Changed implements WorkerSet.
func (s *staticSet) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// update applies f to the worker named id and wakes every waiter.
func (s *staticSet) update(id string, f func(*staticWorker)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.workers {
		if s.workers[i].ID == id {
			f(&s.workers[i])
		}
	}
	close(s.changed)
	s.changed = make(chan struct{})
}
