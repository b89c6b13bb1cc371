// Package vmmodel represents virtual machines as consolidation sees them.
// The VM type itself — a name plus a CPU demand trace — is the public
// contract model.VM; this package adds the streaming monitoring state from
// which the per-window reference utilization û (peak or Nth percentile) is
// drawn.
package vmmodel

import (
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/pkg/dcsim/model"
)

// VM is one virtual machine with its full-horizon demand trace. It is the
// contract type model.VM.
type VM = model.VM

// New returns a VM over the given demand trace.
func New(id string, demand *trace.Series) *VM { return model.NewVM(id, demand) }

// FromSeries builds a VM slice from parallel name and series slices.
func FromSeries(names []string, demands []*trace.Series) []*VM {
	return model.VMsFromSeries(names, demands)
}

// Monitor tracks the reference utilization of one VM on-line. It wraps a P²
// estimator (for percentile references) and an exact running max, so the
// reference can be read at any time without storing the window — the
// memory-saving property the paper highlights in Section IV-A.
//
// A Monitor is not synchronized: Add and Reset must not run concurrently
// with any other call. Ref and N are pure reads.
type Monitor struct {
	pctl float64
	p2   *stats.P2Quantile
	max  float64
	n    int
}

// NewMonitor returns a monitor for the given reference percentile; pctl >= 1
// tracks the exact peak.
func NewMonitor(pctl float64) *Monitor {
	m := &Monitor{pctl: pctl}
	if pctl < 1 {
		if pctl <= 0 {
			panic("vmmodel: reference percentile must be positive")
		}
		m.p2 = stats.NewP2Quantile(pctl)
	}
	return m
}

// Add feeds one demand sample.
func (m *Monitor) Add(x float64) {
	m.n++
	if x > m.max {
		m.max = x
	}
	if m.p2 != nil {
		m.p2.Add(x)
	}
}

// N returns the number of samples seen in the current window.
func (m *Monitor) N() int { return m.n }

// Ref returns the current reference utilization û.
func (m *Monitor) Ref() float64 {
	if m.p2 != nil {
		return m.p2.Value()
	}
	return m.max
}

// Reset starts a new monitoring window.
func (m *Monitor) Reset() {
	m.max = 0
	m.n = 0
	if m.p2 != nil {
		m.p2.Reset()
	}
}
