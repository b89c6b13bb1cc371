package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/pkg/dcsim"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		ok        bool
		beyondTen bool
	}{
		{n: 1, value: 1, pct: 100},
		{n: 10, value: 10, pct: 100},
		{n: 11, value: 1, pct: 100.0 / 11, ok: true},
		{n: 100, value: 90, pct: 90, ok: true},
		{n: 640, value: 630, pct: 100 * 630.0 / 640, ok: true},
	} {
		got := tail(seq(tc.n))
		if got.value != tc.value || got.pct != tc.pct || got.ok != tc.ok || got.n != tc.n {
			t.Errorf("tail of %d samples = %+v, want value %v pct %v ok %v", tc.n, got, tc.value, tc.pct, tc.ok)
		}
		if tc.ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got.value {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("tail of %d samples has %d samples beyond it, want 10", tc.n, beyond)
			}
		}
	}
	if got := tail(nil); got.n != 0 || got.ok {
		t.Errorf("tail of no samples = %+v", got)
	}
}

func TestMeanOfMedians(t *testing.T) {
	// Input 0 runs in about 1 s, input 1 in about 3 s: the figure is the
	// mean of the two medians, whichever way the pooled median would fall.
	keys := []int{0, 1, 0, 1, 0, 1, 1}
	xs := []float64{1.0, 3.0, 1.2, 2.8, 0.9, 3.1, 9.0}
	got, n := meanOfMedians(keys, xs)
	if want := (1.0 + 3.05) / 2; n != 2 || got != want {
		t.Errorf("meanOfMedians = %v over %d keys, want %v over 2", got, n, want)
	}
	rel := relativeToMedians(keys, xs)
	m1 := 3.05
	if want := []float64{1, 3 / m1, 1.2, 2.8 / m1, 0.9, 3.1 / m1, 9 / m1}; !reflect.DeepEqual(rel, want) {
		t.Errorf("relativeToMedians = %v, want %v", rel, want)
	}
}

func TestHostSpeedScale(t *testing.T) {
	h := newHostSpeed()
	h.sample(3)
	if len(h.times) != 3 {
		t.Fatalf("%d kernel times after three samples", len(h.times))
	}
	for _, x := range h.times {
		if x <= 0 {
			t.Fatalf("kernel time %v", x)
		}
	}
	if got, want := h.scale(), refKernelSeconds/median(h.times); got != want {
		t.Errorf("scale %v, want %v", got, want)
	}
	// The kernel's work is fixed: the same inputs fold to the same sum.
	again := newHostSpeed()
	again.sample(3)
	if again.sink != h.sink {
		t.Errorf("kernel sums %v and %v differ", h.sink, again.sink)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	const ms = int64(1e6)
	spans := []span{
		{Name: "run", ID: 1, Start: 0, End: 100 * ms},
		{Name: "a", ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Name: "b", ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms}, // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 60 * ms, End: 70 * ms},
		{Name: "d", ID: 5, Parent: 4, Start: 62 * ms, End: 65 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]float64{1: 0.050, 2: 0.020, 3: 0.030, 4: 0.007, 5: 0.003}
	for id, w := range want {
		if d := self[id] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if p := nestingProblem(spans); p != "" {
		t.Errorf("well-nested spans reported: %s", p)
	}
	spans = append(spans, span{Name: "late", ID: 6, Parent: 4, Start: 68 * ms, End: 75 * ms})
	if p := nestingProblem(spans); p == "" {
		t.Error("a child ending after its parent was not reported")
	}
	if got := selfTimes(spans)[4]; got < 0 {
		t.Errorf("self time of a span whose child overruns it = %v, want >= 0", got)
	}
}

// tiny shrinks a workload definition to a few VMs over two hours, keeping
// its components.
func tiny(def workloadDef) workloadDef {
	sc := def.Scenario
	sc.Workload.VMs, sc.Workload.Groups, sc.Workload.Hours = 12, 3, 2
	sc.MaxServers, sc.PeriodSamples = 6, 240
	def.Scenario = sc
	return def
}

var (
	testRecOnce sync.Once
	testRec     *recorder
)

// sharedRecorder is the recorder the traced workload kind is registered
// with; a process registers the kind once.
func sharedRecorder(t *testing.T) *recorder {
	testRecOnce.Do(func() {
		testRec = newRecorder()
		if err := registerTracedKind(testRec); err != nil {
			t.Fatal(err)
		}
	})
	return testRec
}

func TestTracedRunMatchesDcsimRun(t *testing.T) {
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, def := range defs.Workloads {
		if len(def.Grid) > 0 {
			continue
		}
		def := tiny(def)
		t.Run(def.Name, func(t *testing.T) {
			tgt, err := setupSim(ctx, def, 3, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			res, err := dcsim.Run(ctx, tgt.scs[0])
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(res)
			u, lr, err := tgt.traced(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if string(u.bytes) != string(want) {
				t.Fatal("traced run's Result differs from dcsim.Run's")
			}
			if lr.problem != "" {
				t.Fatal(lr.problem)
			}
			v := lr.values
			usesMatrix := tgt.scs[0].Policy == "corr-aware" || tgt.scs[0].Governor == "eqn4"
			if (v["matrix.add_calls"] > 0) != usesMatrix || (v["matrix.cost_reads"] > 0) != usesMatrix {
				t.Errorf("matrix adds %v, cost reads %v; matrix in use: %v", v["matrix.add_calls"], v["matrix.cost_reads"], usesMatrix)
			}
			// Two hours of 5-s samples is six 240-sample periods.
			if v["synth.records"] != 12 || v["policy.place_calls"] != 6 || v["governor.plan_calls"] != 6 {
				t.Errorf("records %v, placements %v, plans %v; want 12, 6, 6", v["synth.records"], v["policy.place_calls"], v["governor.plan_calls"])
			}
			if want := float64(2 * 12 * 5); v["predict.calls"] != want {
				t.Errorf("predict calls %v, want %v (two per VM per period after the first)", v["predict.calls"], want)
			}
			if (v["governor.rescale_calls"] > 0) != (tgt.scs[0].RescaleEvery > 0) {
				t.Errorf("rescale calls %v with rescale_every %d", v["governor.rescale_calls"], tgt.scs[0].RescaleEvery)
			}
			// The next run takes the seed's next input, which has a seed of
			// its own.
			if len(tgt.scs) != max(def.Inputs, 1) || len(tgt.scs) < 2 {
				t.Fatalf("%d inputs, definition has %d", len(tgt.scs), def.Inputs)
			}
			if tgt.scs[0].Workload.Seed == tgt.scs[1].Workload.Seed {
				t.Fatalf("inputs 0 and 1 share seed %d", tgt.scs[0].Workload.Seed)
			}
			res, err = dcsim.Run(ctx, tgt.scs[1])
			if err != nil {
				t.Fatal(err)
			}
			want, _ = json.Marshal(res)
			u, _, err = tgt.traced(ctx, 2)
			if err != nil {
				t.Fatal(err)
			}
			if u.input != 1 || string(u.bytes) != string(want) {
				t.Errorf("second traced run: input %d, equal to dcsim.Run of input 1: %v", u.input, string(u.bytes) == string(want))
			}
		})
	}
}

func TestTracedSweepPassMatchesReference(t *testing.T) {
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	def, err := defs.find("sweep-obj")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]any
	if err := json.Unmarshal(def.Grid, &g); err != nil {
		t.Fatal(err)
	}
	base := g["base"].(map[string]any)
	base["workload"].(map[string]any)["vms"] = 8
	base["workload"].(map[string]any)["hours"] = 1
	g["axes"] = []any{
		map[string]any{"field": "policy", "values": []any{"corr-aware", "pcp"}},
		map[string]any{"field": "max_servers", "values": []any{4, 8}},
	}
	def.Grid, _ = json.Marshal(g)
	def.Recording.VMsPerFile = 4

	rec := sharedRecorder(t)
	ctx := context.Background()
	tgt, err := setupSweep(ctx, def, 5, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.close()
	plain, _, _, err := tgt.pass(ctx, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, lr, _, err := tgt.pass(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []unit{plain, traced} {
		if u.failed != 0 || string(u.bytes) != string(tgt.reference) {
			t.Fatalf("pass failed %d checks (%v) or differs from the reference", u.failed, u.problems)
		}
	}
	if lr.problem != "" {
		t.Fatal(lr.problem)
	}
	v := lr.values
	if v["sweep.runs"] != 4 || v["tracedir.records"] != 4*8 || v["remote.handler_s"] <= 0 || v["objstore.requests"] == 0 {
		t.Errorf("runs %v, records %v, handler %v s, store requests %v", v["sweep.runs"], v["tracedir.records"], v["remote.handler_s"], v["objstore.requests"])
	}
	if v["objstore.chunk_fetches"] == 0 || v["objstore.cache_hit_ratio"] != 0 {
		t.Errorf("chunk fetches %v, cache hit ratio %v with the cache off", v["objstore.chunk_fetches"], v["objstore.cache_hit_ratio"])
	}
}

func TestCheckResultRejectsCorruption(t *testing.T) {
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	def, err := defs.find("corr-p95-dvfs")
	if err != nil {
		t.Fatal(err)
	}
	def = tiny(def)
	tgt, err := setupSim(context.Background(), def, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dcsim.Run(context.Background(), tgt.scs[0])
	if err != nil {
		t.Fatal(err)
	}
	ps := tgt.scs[0].PeriodSamples
	if errs := checkResult(res, ps); len(errs) != 0 {
		t.Fatalf("a genuine result fails its checks: %v", errs)
	}
	data, _ := json.Marshal(res)
	for name, corrupt := range map[string]func(r *dcsim.Result){
		"energy":           func(r *dcsim.Result) { r.Periods[1].EnergyJ *= 1.01 },
		"migrations":       func(r *dcsim.Result) { r.TotalMigrations++ },
		"residency":        func(r *dcsim.Result) { r.FreqResidency[0][0]++ },
		"violation":        func(r *dcsim.Result) { r.MaxViolationPct = 101 },
		"period violation": func(r *dcsim.Result) { r.Periods[0].MaxViolationPct = -1 },
	} {
		var bad dcsim.Result
		if err := json.Unmarshal(data, &bad); err != nil {
			t.Fatal(err)
		}
		corrupt(&bad)
		if errs := checkResult(&bad, ps); len(errs) == 0 {
			t.Errorf("corrupted %s passes the checks", name)
		}
	}
	u, err := unitOf(res, 0, ps, 1)
	if err != nil || u.failed != 0 {
		t.Fatalf("unit of a genuine result: %+v, %v", u, err)
	}
	tl := &tally{want: []string{digestOf(u.bytes)}}
	tl.add(u)
	res.EnergyJ++
	bad, _ := unitOf(res, 0, ps, 1)
	tl.add(bad)
	if tl.failed != 1 || tl.attempted != 2 {
		t.Errorf("tally after one good and one corrupted run: %d failed of %d", tl.failed, tl.attempted)
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json, workloads.json,
// interactions.json and the metrics the program prints name the same
// things.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	workloads := map[string]bool{}
	for _, w := range defs.Workloads {
		want = append(want, w.Name)
		workloads[w.Name] = true
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, workloads.json has %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, ms []metric) {
		var a, b []string
		for _, m := range got {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range ms {
			b = append(b, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("BENCHMARK.json %s %v, program prints %v", what, a, b)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	ins, err := loadInteractions()
	if err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	var covered []string
	for _, in := range ins {
		covered = append(covered, in.Metrics...)
		for _, p := range append(append([]pair(nil), in.Moves...), in.Unchanged...) {
			if !e2e[p.Metric] || !workloads[p.Workload] {
				t.Errorf("layer %s names unknown pair %s on %s", in.Layer, p.Metric, p.Workload)
			}
		}
	}
	var all []string
	for _, m := range perLayer {
		all = append(all, m.name)
	}
	sort.Strings(covered)
	sort.Strings(all)
	if strings.Join(covered, ",") != strings.Join(all, ",") {
		t.Errorf("interactions.json covers %v, per-layer metrics are %v", covered, all)
	}
}
