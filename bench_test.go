// Package repro's top-level benchmarks regenerate every table and figure
// of the paper (one benchmark per artifact, printing the measured rows on
// the first iteration) and microbenchmark the core data structures.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/devent"
	"repro/internal/exp"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/vmmodel"
	"repro/internal/websearch"
)

var printOnce sync.Map

// show prints an artifact the first time a benchmark regenerates it, so a
// plain `go test -bench=.` run reproduces the paper's rows.
func show(key string, s fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", s)
	}
}

func BenchmarkFig1(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig1", r)
		b.ReportMetric(r.CorrIntra, "corr(vm1,vm2)")
	}
}

func BenchmarkTableI(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableI(o)
		if err != nil {
			b.Fatal(err)
		}
		show("tablei", r)
		b.ReportMetric(r.MaxIPCDeltaPct, "maxIPCdelta%")
	}
}

func BenchmarkFig3(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig3(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig3", r)
		b.ReportMetric(100*r.AboveLineFrac, "aboveY=X%")
	}
}

func BenchmarkFig4(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig4", r)
		b.ReportMetric(r.SmoothedMax[1], "peakUnCorr")
		b.ReportMetric(r.SmoothedMax[2], "peakCorr")
	}
}

func BenchmarkFig5(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig5", r)
		b.ReportMetric(r.SavingPct, "powerSaving%")
	}
}

func BenchmarkTableIIStatic(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableII(o, false)
		if err != nil {
			b.Fatal(err)
		}
		show("tableiia", r)
		b.ReportMetric(r.SavingsPct, "powerSaving%")
		b.ReportMetric(r.QoSImprovementPP, "qosImprovement_pp")
	}
}

func BenchmarkTableIIDynamic(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableII(o, true)
		if err != nil {
			b.Fatal(err)
		}
		show("tableiib", r)
		b.ReportMetric(r.SavingsPct, "powerSaving%")
		b.ReportMetric(r.QoSImprovementPP, "qosImprovement_pp")
	}
}

func BenchmarkFig6(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		show("fig6", r)
		b.ReportMetric(100*r.LowProposed, "proposedLowLevel%")
		b.ReportMetric(100*r.LowBFD, "bfdLowLevel%")
	}
}

// --- ablation benches (A1-A6 are one-shot tables; A5's scale sweep below) ---

func BenchmarkAblationThreshold(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationThreshold(o)
		if err != nil {
			b.Fatal(err)
		}
		show("a1", r)
	}
}

func BenchmarkAblationMetric(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.AblationMetric(o)
		if err != nil {
			b.Fatal(err)
		}
		show("a4", r)
	}
}

// --- microbenchmarks on the core machinery ---

// BenchmarkCostMatrixUpdate measures one streaming sample update for the
// paper's 40-VM scale (780 pairs).
func BenchmarkCostMatrixUpdate(b *testing.B) {
	const n = 40
	m := core.NewCostMatrix(n, 1)
	rng := rand.New(rand.NewSource(1))
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = rng.Float64() * 4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(sample)
	}
}

// BenchmarkCostMatrixUpdateP95 is the percentile-reference variant (P²
// estimators instead of running maxima).
func BenchmarkCostMatrixUpdateP95(b *testing.B) {
	const n = 40
	m := core.NewCostMatrix(n, 0.95)
	rng := rand.New(rand.NewSource(1))
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = rng.Float64() * 4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(sample)
	}
}

// BenchmarkAllocatorScale sweeps the allocator over growing VM counts
// (ablation A5's runtime axis) and records the allocator perf trajectory
// (BENCH_alloc.json via make ci). Two series:
//
//   - exact: the paper's Fig.-2 semantics with the streaming matrix, as
//     simulations run it. The ≥1k sizes guard the index-set remove path
//     and the incremental affinity sums in Allocator.Place: with the old
//     per-pick member rescan the fill alone was O(n²·members).
//   - block=512: blocked candidate evaluation with a flat cost source,
//     the sub-quadratic mode for 10k-VM scenarios — per-admission work is
//     capped at the block size, so ns/op grows ~linearly 1k→10k.
func BenchmarkAllocatorScale(b *testing.B) {
	bench := func(n int, a *core.Allocator) func(b *testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			reqs := make([]place.Request, n)
			for i := range reqs {
				reqs[i] = place.Request{Ref: 0.5 + 3*rng.Float64()}
			}
			if a.CostFn == nil {
				m := core.NewCostMatrix(n, 1)
				sample := make([]float64, n)
				for k := 0; k < 50; k++ {
					for i := range sample {
						sample[i] = rng.Float64() * 4
					}
					m.Add(sample)
				}
				a.Matrix = m
			}
			spec := server.XeonE5410()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Place(reqs, spec, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, n := range []int{40, 100, 200, 400, 1000, 2000} {
		cfg := core.DefaultConfig()
		cfg.Block = 0 // DefaultConfig is blocked now; this series pins exact
		b.Run(fmt.Sprintf("exact/vms=%d", n),
			bench(n, &core.Allocator{Config: cfg}))
	}
	for _, n := range []int{1000, 2000, 10000} {
		cfg := core.DefaultConfig()
		cfg.Block = 512
		b.Run(fmt.Sprintf("block=512/vms=%d", n),
			bench(n, &core.Allocator{Config: cfg, CostFn: core.SyntheticPairCost}))
	}
}

// BenchmarkAllocPhases attributes hot-path time to its phases so
// BENCH_alloc.json records per-phase baselines. Rows keep the "serial"
// path segment of the recorded keys:
//
//   - matrix: one streaming CostMatrix.Add — the n(n−1)/2 pair-monitor
//     updates of the UPDATE phase.
//   - fill: one full exact placement over O(1) synthetic pair costs —
//     isolates candidate scoring and the running-sum extensions.
//   - total: one matrix-fed exact placement — the simulator's
//     per-period ALLOCATE hot path end to end (scoring + monitor reads).
func BenchmarkAllocPhases(b *testing.B) {
	const n = 2000
	b.Run(fmt.Sprintf("matrix/serial/vms=%d", n), func(b *testing.B) {
		m := core.NewCostMatrix(n, 1)
		rng := rand.New(rand.NewSource(1))
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.Float64() * 4
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Add(sample)
		}
	})
	b.Run(fmt.Sprintf("fill/serial/vms=%d", n), func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		reqs := make([]place.Request, n)
		for i := range reqs {
			reqs[i] = place.Request{Ref: 0.5 + 3*rng.Float64()}
		}
		cfg := core.DefaultConfig()
		cfg.Block = 0
		a := &core.Allocator{Config: cfg, CostFn: core.SyntheticPairCost}
		spec := server.XeonE5410()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Place(reqs, spec, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("total/serial/vms=%d", n), func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		reqs := make([]place.Request, n)
		for i := range reqs {
			reqs[i] = place.Request{Ref: 0.5 + 3*rng.Float64()}
		}
		m := core.NewCostMatrix(n, 1)
		sample := make([]float64, n)
		for k := 0; k < 50; k++ {
			for i := range sample {
				sample[i] = rng.Float64() * 4
			}
			m.Add(sample)
		}
		cfg := core.DefaultConfig()
		cfg.Block = 0
		a := &core.Allocator{Config: cfg, Matrix: m}
		spec := server.XeonE5410()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Place(reqs, spec, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselinePlacements measures the baselines at the paper's scale.
func BenchmarkBaselinePlacements(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	win := make([]*trace.Series, n)
	reqs := make([]place.Request, n)
	for i := range reqs {
		s := trace.New(5*time.Second, 720)
		for k := 0; k < 720; k++ {
			s.Append(rng.Float64() * 4)
		}
		win[i] = s
		reqs[i] = place.Request{Ref: s.Max(), OffPeak: s.Percentile(0.9), Window: s}
	}
	spec := server.XeonE5410()
	for _, pol := range []place.Policy{place.FFD{}, place.BFD{}, place.PCP{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pol.Place(reqs, spec, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2Quantile measures the streaming percentile estimator.
func BenchmarkP2Quantile(b *testing.B) {
	p := stats.NewP2Quantile(0.95)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(xs[i&1023])
	}
}

// BenchmarkPearson measures the streaming correlation the paper compares
// its cost function against.
func BenchmarkPearson(b *testing.B) {
	var p stats.Pearson
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(xs[i&1023], xs[(i+7)&1023])
	}
}

// BenchmarkTraceGeneration measures the Setup-2 synthetic dataset build.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := synth.DefaultDatacenterConfig()
	for i := 0; i < b.N; i++ {
		ds := synth.Datacenter(cfg)
		if len(ds.Fine) != cfg.VMs {
			b.Fatal("bad dataset")
		}
	}
}

// BenchmarkTableIIExtended regenerates the beyond-the-paper comparison
// (FFD + JointVM baselines, migration churn).
func BenchmarkTableIIExtended(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.TableIIExtended(o, false)
		if err != nil {
			b.Fatal(err)
		}
		show("extended", r)
	}
}

// BenchmarkPowerGating regenerates the Section III-A power-gating study.
func BenchmarkPowerGating(b *testing.B) {
	o := exp.Full()
	for i := 0; i < b.N; i++ {
		r, err := exp.PowerGating(o)
		if err != nil {
			b.Fatal(err)
		}
		show("gating", r)
		b.ReportMetric(r.TailPenaltyPct, "parkingTailPenalty%")
	}
}

// BenchmarkPSPoolSubmit measures the processor-sharing pool under a steady
// stream of jobs (the web-search simulator's hot path).
func BenchmarkPSPoolSubmit(b *testing.B) {
	s := devent.New()
	p := websearch.NewPool(s, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(0.01, nil, nil)
		if i%64 == 63 {
			s.Run(s.Now() + 0.1)
		}
	}
}

// BenchmarkCacheAccess measures one L2 access of the Table-I cache model.
func BenchmarkCacheAccess(b *testing.B) {
	w := cachesim.WebSearch(1)
	c, err := cachesim.NewCache(6<<20, 16, 64)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = w.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}

// BenchmarkWebSearchSecond measures one simulated second of the two-cluster
// web-search testbed.
func BenchmarkWebSearchSecond(b *testing.B) {
	cfg := websearch.DefaultConfig()
	cfg.Duration = float64(b.N)
	if cfg.Duration < 10 {
		cfg.Duration = 10
	}
	b.ResetTimer()
	if _, err := websearch.Run(cfg, websearch.SharedCorr(1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDatacenterHour measures one simulated hour (one placement period)
// of the 40-VM Setup-2 under the proposed policy.
func BenchmarkDatacenterHour(b *testing.B) {
	ds := synth.Datacenter(synth.DefaultDatacenterConfig())
	vms := vmmodel.FromSeries(ds.Names, ds.Fine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewCostMatrix(len(vms), 1)
		cfg := sim.Config{
			Spec:          server.XeonE5410(),
			Power:         power.XeonE5410(),
			Policy:        &core.Allocator{Config: core.DefaultConfig(), Matrix: m},
			Governor:      sim.CorrAware{Matrix: m},
			MaxServers:    20,
			PeriodSamples: 720,
			Pctl:          1,
			Predictor:     predict.LastValue{},
			Matrix:        m,
		}
		short := make([]*vmmodel.VM, len(vms))
		for v := range vms {
			short[v] = vmmodel.New(vms[v].ID, vms[v].Demand.Slice(0, 720))
		}
		if _, err := sim.Run(short, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
