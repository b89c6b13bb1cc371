// Package core implements the paper's contribution: the streaming
// correlation cost of Eqn (1), the server-level cost of Eqn (2), the
// correlation-aware First-Fit-Decreasing allocator of Fig. 2, and the
// aggressive-yet-safe voltage/frequency selection of Eqns (3)-(4).
package core

import (
	"math"

	"repro/internal/vmmodel"
	"repro/pkg/dcsim/model"
)

// PairCostFunc is the pairwise-cost contract model.PairCostFunc.
type PairCostFunc = model.PairCostFunc

// CostMatrix maintains the pairwise correlation costs of Eqn (1) for a set
// of VMs, updatable one utilization sample per VM at a time:
//
//	Cost(i,j) = (û(VMi) + û(VMj)) / û(VMi + VMj)
//
// where û is the reference utilization (peak, or the Nth percentile via a
// P² estimator) over the monitoring window. Each update is O(1) per pair
// with O(1) memory, which is the paper's argument for preferring this
// metric over windowed Pearson correlation: the work is spread evenly over
// the monitoring interval and no sample history is stored.
//
// Cost is at least ~1 (peaks of the sum cannot exceed the sum of peaks) and
// grows as the VMs' peaks interleave; higher cost = lower correlation =
// better co-location candidates.
type CostMatrix struct {
	n    int
	pctl float64
	vm   []*vmmodel.Monitor // per-VM û
	pair []*vmmodel.Monitor // per-pair û of the aggregated demand, upper triangle
}

// CostMatrix implements the streaming contract model.CostSource.
var _ model.CostSource = (*CostMatrix)(nil)

// NewCostMatrix returns a matrix for n VMs using the given reference
// percentile (>= 1 tracks exact peaks).
func NewCostMatrix(n int, pctl float64) *CostMatrix {
	if n < 0 {
		panic("core: negative VM count")
	}
	m := &CostMatrix{n: n, pctl: pctl}
	m.vm = make([]*vmmodel.Monitor, n)
	for i := range m.vm {
		m.vm[i] = vmmodel.NewMonitor(pctl)
	}
	m.pair = make([]*vmmodel.Monitor, n*(n-1)/2)
	for i := range m.pair {
		m.pair[i] = vmmodel.NewMonitor(pctl)
	}
	return m
}

// N returns the number of VMs tracked.
func (m *CostMatrix) N() int { return m.n }

func (m *CostMatrix) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Row-major upper triangle without the diagonal.
	return i*m.n - i*(i+1)/2 + (j - i - 1)
}

// Add feeds one simultaneous utilization sample per VM; len(sample) must
// equal N(). The upper triangle is walked row by row in pairIndex order:
// row i is the contiguous run of pairs (i, i+1) … (i, n−1).
func (m *CostMatrix) Add(sample []float64) {
	if len(sample) != m.n {
		panic("core: sample length does not match VM count")
	}
	for i, v := range sample {
		m.vm[i].Add(v)
	}
	base := 0
	for i, si := range sample {
		row := m.pair[base : base+m.n-i-1]
		for k, mo := range row {
			mo.Add(si + sample[i+1+k])
		}
		base += len(row)
	}
}

// Samples returns how many samples have been fed into the window.
func (m *CostMatrix) Samples() int {
	if m.n == 0 {
		return 0
	}
	return m.vm[0].N()
}

// Ref returns the current reference utilization û of VM i.
func (m *CostMatrix) Ref(i int) float64 { return m.vm[i].Ref() }

// Cost returns the Eqn-1 cost between VMs i and j. Before any samples, or
// when the pair never exercises the CPU, the cost is 1 (assume perfect
// correlation — the conservative choice).
func (m *CostMatrix) Cost(i, j int) float64 {
	if i == j {
		return 1
	}
	den := m.pair[m.pairIndex(i, j)].Ref()
	if den <= 1e-12 {
		return 1
	}
	return (m.vm[i].Ref() + m.vm[j].Ref()) / den
}

// Reset starts a new monitoring window, clearing all estimators.
func (m *CostMatrix) Reset() {
	for _, mo := range m.vm {
		mo.Reset()
	}
	for _, mo := range m.pair {
		mo.Reset()
	}
}

// CostOf computes the Eqn-1 cost of two demand slices directly (batch
// form), using the given reference percentile. It is the reference
// implementation the streaming matrix is validated against, and what the
// allocator falls back to when no streaming matrix is available.
func CostOf(a, b []float64, pctl float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	ra := refOf(a[:n], pctl)
	rb := refOf(b[:n], pctl)
	sum := make([]float64, n)
	for i := 0; i < n; i++ {
		sum[i] = a[i] + b[i]
	}
	rs := refOf(sum, pctl)
	if rs <= 1e-12 {
		return 1
	}
	return (ra + rb) / rs
}

func refOf(xs []float64, pctl float64) float64 {
	if pctl >= 1 {
		max := 0.0
		for i, v := range xs {
			if i == 0 || v > max {
				max = v
			}
		}
		return max
	}
	// Exact percentile for the batch form.
	m := vmmodel.NewMonitor(pctl)
	for _, v := range xs {
		m.Add(v)
	}
	return m.Ref()
}

// SyntheticPairCost is a deterministic, symmetric, O(1) stand-in pair
// cost with values in [1, 1.5) — for scale tests and benchmarks, where a
// streaming matrix's per-pair monitors would dominate memory at 10k+ VMs.
func SyntheticPairCost(i, j int) float64 {
	if i == j {
		return 1
	}
	if i > j {
		i, j = j, i
	}
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(j)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return 1 + float64(h%1000)/2000
}

// ServerCost computes the weighted average correlation cost of a server,
// Eqn (2): each member VM contributes the mean of its pairwise costs
// against the other members, weighted by its share of the server's total
// reference utilization. A server with fewer than two members has cost 1
// (a lone VM's peak is its own peak — no co-location discount).
func ServerCost(members []int, refs []float64, cost PairCostFunc) float64 {
	if len(members) < 2 {
		return 1
	}
	total := 0.0
	for _, j := range members {
		total += refs[j]
	}
	if total <= 1e-12 {
		return 1
	}
	out := 0.0
	for _, j := range members {
		w := refs[j] / total
		mean := 0.0
		for _, k := range members {
			if k == j {
				continue
			}
			mean += cost(j, k)
		}
		mean /= float64(len(members) - 1)
		out += w * mean
	}
	if math.IsNaN(out) || out < 1e-12 {
		return 1
	}
	return out
}
