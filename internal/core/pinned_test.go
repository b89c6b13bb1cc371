package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/place"
)

// randomReqs builds a request set with demand windows so the batch-fallback
// cost path (flat memo) is exercised alongside synthetic costs.
func randomReqs(n int, seed int64, windows bool) []place.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]place.Request, n)
	for i := range reqs {
		var w place.Request
		w.Ref = 0.3 + 3.5*rng.Float64()
		if windows {
			s := phasedWindow(i%2, 60, seed+int64(i))
			w.Window = s
			w.Ref = s.Max()
		}
		reqs[i] = w
	}
	return reqs
}

// feedRandom streams k uniform [0, 4) samples into m.
func feedRandom(m *CostMatrix, k int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sample := make([]float64, m.N())
	for s := 0; s < k; s++ {
		for i := range sample {
			sample[i] = rng.Float64() * 4
		}
		m.Add(sample)
	}
}

// placementDigest is an FNV-64a hash of a placement's server count and
// per-VM assignment.
func placementDigest(p *place.Placement) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:", p.NumServers)
	for _, s := range p.Assign {
		fmt.Fprintf(h, "%d,", s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPlacePinned pins Allocator.Place beyond the 40-VM paper goldens:
// exact and blocked fills over synthetic, matrix-fed and window-fallback
// costs, threshold-relaxation rounds and the capacity-shortfall
// overcommit branch, at 77-151 VMs. The digests were recorded before the
// fill and CostMatrix.Add were last rewritten; any change to which VM a
// fill admits shows up here. A rerun on the same Allocator must reproduce
// itself, so scratch reuse cannot leak state between calls.
func TestPlacePinned(t *testing.T) {
	type variant struct {
		name       string
		block      int
		thcost     float64
		maxServers int
		windows    bool
		matrix     bool
		want       [3]string // per seed 1..3
	}
	variants := []variant{
		{name: "exact", block: 0, thcost: 1.15,
			want: [3]string{"b82dc4cd5dc00284", "c507edcb48b06214", "36f1271fef392ad9"}},
		{name: "blocked", block: 16, thcost: 1.15,
			want: [3]string{"40ac7a62eba18478", "a6254cf504b21b9f", "120fb828dbd7e26f"}},
		{name: "exact-relax", block: 0, thcost: 30,
			want: [3]string{"ab9a0645e95e39ec", "90802a2ebaada83a", "9546443115d2303d"}},
		{name: "blocked-relax", block: 8, thcost: 30,
			want: [3]string{"996d036dc1bd2e4a", "18aea10b5cf2dfc7", "9452060401cf52ef"}},
		// maxServers 2 with ~n/2 servers of demand forces the fully
		// relaxed overcommit branch.
		{name: "exact-overcommit", block: 0, thcost: 1.15, maxServers: 2,
			want: [3]string{"becaa5a6fc9800c8", "eb19155f6dd4ffa4", "11b1978462dae0e0"}},
		{name: "blocked-overcommit", block: 8, thcost: 1.15, maxServers: 2,
			want: [3]string{"392bb6c102bd0148", "86564faca2fc6a5c", "44c6b29f869f5a28"}},
		{name: "exact-windows", block: 0, thcost: 1.15, windows: true,
			want: [3]string{"80ffeb97af6631e2", "d8ca99fdaa9c68e5", "dc6fc04f034c2034"}},
		{name: "exact-matrix", block: 0, thcost: 1.15, matrix: true,
			want: [3]string{"bc90dd4cb6e500ff", "d4cbc6e1fdee612f", "d6ab3917f8a6b218"}},
		{name: "blocked-matrix", block: 16, thcost: 1.15, matrix: true,
			want: [3]string{"88aaf3171a2679ab", "6ba0bc51ee636556", "6b6b9141fa8ccb4e"}},
	}
	spec := spec8()
	for _, v := range variants {
		for seed := int64(1); seed <= 3; seed++ {
			n := 40 + int(seed)*37
			reqs := randomReqs(n, seed, v.windows)
			cfg := DefaultConfig()
			cfg.Block = v.block
			cfg.THCost = v.thcost
			maxServers := v.maxServers
			if maxServers == 0 {
				maxServers = n
			}
			a := &Allocator{Config: cfg}
			if v.matrix {
				m := NewCostMatrix(n, 1)
				feedRandom(m, 40, seed*11)
				a.Matrix = m
			} else if !v.windows {
				a.CostFn = SyntheticPairCost
			}
			p, err := a.Place(reqs, spec, maxServers)
			if err != nil {
				t.Fatalf("%s seed %d: %v", v.name, seed, err)
			}
			got := placementDigest(p)
			if want := v.want[seed-1]; got != want {
				t.Errorf("%s seed %d: placement digest %s, want %s", v.name, seed, got, want)
			}
			again, err := a.Place(reqs, spec, maxServers)
			if err != nil {
				t.Fatal(err)
			}
			if d := placementDigest(again); d != got {
				t.Errorf("%s seed %d: rerun digest %s, first %s", v.name, seed, d, got)
			}
		}
	}
}

// TestCostMatrixPinned pins the streaming UPDATE bit for bit: a digest of
// every Ref(i) and Cost(i,j) after 200 random samples, for the peak and
// P²-percentile references, recorded before CostMatrix.Add was last
// rewritten.
func TestCostMatrixPinned(t *testing.T) {
	for _, tc := range []struct {
		pctl float64
		want string
	}{
		{1, "7d0df472de1eb566"},
		{0.95, "3f3648e68e2e386c"},
	} {
		const n = 23
		m := NewCostMatrix(n, tc.pctl)
		feedRandom(m, 200, 42)
		h := fnv.New64a()
		var b [8]byte
		put := func(x float64) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for i := 0; i < n; i++ {
			put(m.Ref(i))
			for j := i + 1; j < n; j++ {
				put(m.Cost(i, j))
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if got != tc.want {
			t.Errorf("pctl=%v: matrix digest %s, want %s", tc.pctl, got, tc.want)
		}
	}
}

// TestCostFuncFallbackMatchesCostOf checks the batch fallback's flat memo
// returns the pure CostOf value bit for bit, on the first read of each
// pair and on the memoized re-read in the opposite orientation.
func TestCostFuncFallbackMatchesCostOf(t *testing.T) {
	const n = 12
	reqs := randomReqs(n, 5, true)
	a := NewAllocator(DefaultConfig())
	cost := a.costFunc(reqs)
	for i := 0; i < n; i++ {
		if got := cost(i, i); got != 1 {
			t.Fatalf("cost(%d,%d) = %v, want 1", i, i, got)
		}
		for j := i + 1; j < n; j++ {
			want := CostOf(reqs[i].Window.Samples(), reqs[j].Window.Samples(), 1)
			for _, got := range []float64{cost(i, j), cost(j, i)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cost(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}
