package main

import (
	"fmt"
	"math"

	"repro/pkg/dcsim/model"
)

// metric names a reported value and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics printed with --trace 0, in BENCHMARK.json order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"run_s_tail", "s"},
	{"runs_per_s", "1/s"},
	{"peak_live_mib", "MiB"},
}

// perLayer are the metrics printed with --trace 1, in BENCHMARK.json order.
// Layers a workload does not reach read 0.
var perLayer = []metric{
	{"matrix.add_calls", "count"},
	{"matrix.add_s", "s"},
	{"matrix.ns_per_pair", "ns"},
	{"matrix.reset_s", "s"},
	{"matrix.cost_reads", "count"},
	{"matrix.alloc_mib", "MiB"},
	{"policy.place_calls", "count"},
	{"policy.place_s", "s"},
	{"policy.alloc_mib", "MiB"},
	{"governor.plan_calls", "count"},
	{"governor.rescale_calls", "count"},
	{"governor.busy_s", "s"},
	{"predict.calls", "count"},
	{"predict.busy_s", "s"},
	{"sim.self_s", "s"},
	{"sim.samples", "count"},
	{"sim.ns_per_vm_sample", "ns"},
	{"synth.next_s", "s"},
	{"synth.records", "count"},
	{"synth.alloc_mib", "MiB"},
	{"tracedir.next_s", "s"},
	{"tracedir.records", "count"},
	{"objstore.requests", "count"},
	{"objstore.serve_s", "s"},
	{"objstore.bytes", "bytes"},
	{"objstore.chunk_fetches", "count"},
	{"objstore.fetch_retries", "count"},
	{"objstore.cache_hit_ratio", "ratio"},
	{"sweep.runs", "count"},
	{"sweep.slot_idle_frac", "ratio"},
	{"remote.handler_s", "s"},
	{"remote.transport_s", "s"},
	{"remote.bytes", "bytes"},
	{"trace.run_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// layerRun holds one traced run's per-layer values, the base each ratio
// was computed from, and any accounting failure.
type layerRun struct {
	values  map[string]float64
	bases   map[string]string
	problem string
}

// spanSum totals the spans of one name.
type spanSum struct {
	n            int
	secs         float64
	alloc, bytes int64
}

// sumByName sums count, duration, allocation and bytes per span name.
func sumByName(spans []span) map[string]spanSum {
	out := make(map[string]spanSum)
	for _, s := range spans {
		a := out[s.Name]
		a.n++
		a.secs += s.dur()
		a.alloc += s.Alloc
		a.bytes += s.Bytes
		out[s.Name] = a
	}
	return out
}

const mib = 1 << 20

// simLayers derives the per-layer values of one traced dcsim run from its
// spans. The run span's self time is sim.self_s; the self times of all
// spans must add up to the run's wall time.
func simLayers(spans []span, nVMs int, samples, costReads, matrixAlloc int64) layerRun {
	by := sumByName(spans)
	self := selfTimes(spans)
	var runSpan span
	total := 0.0
	for _, s := range spans {
		total += self[s.ID]
		if s.Name == "run" {
			runSpan = s
		}
	}
	lr := layerRun{values: map[string]float64{}, bases: map[string]string{}}
	v := lr.values
	add, reset := by["matrix.add"], by["matrix.reset"]
	v["matrix.add_calls"] = float64(add.n)
	v["matrix.add_s"] = add.secs
	pairs := float64(nVMs) * float64(nVMs-1) / 2
	if add.n > 0 {
		v["matrix.ns_per_pair"] = add.secs * 1e9 / (float64(add.n) * pairs)
	}
	lr.bases["matrix.ns_per_pair"] = fmt.Sprintf("add_s %.4f s over %d adds x %.0f pairs", add.secs, add.n, pairs)
	v["matrix.reset_s"] = reset.secs
	v["matrix.cost_reads"] = float64(costReads)
	v["matrix.alloc_mib"] = float64(matrixAlloc+add.alloc+reset.alloc) / mib
	lr.bases["matrix.alloc_mib"] = fmt.Sprintf("construction %.2f MiB + Add/Reset %.2f MiB",
		float64(matrixAlloc)/mib, float64(add.alloc+reset.alloc)/mib)
	place := by["policy.place"]
	v["policy.place_calls"] = float64(place.n)
	v["policy.place_s"] = place.secs
	v["policy.alloc_mib"] = float64(place.alloc) / mib
	plan, rescale := by["governor.plan"], by["governor.rescale"]
	v["governor.plan_calls"] = float64(plan.n)
	v["governor.rescale_calls"] = float64(rescale.n)
	v["governor.busy_s"] = plan.secs + rescale.secs
	pred := by["predict"]
	v["predict.calls"] = float64(pred.n)
	v["predict.busy_s"] = pred.secs
	simSelf := self[runSpan.ID]
	v["sim.self_s"] = simSelf
	v["sim.samples"] = float64(samples)
	if samples > 0 && nVMs > 0 {
		v["sim.ns_per_vm_sample"] = simSelf * 1e9 / (float64(samples) * float64(nVMs))
	}
	lr.bases["sim.ns_per_vm_sample"] = fmt.Sprintf("sim.self_s %.4f s over %d samples x %d VMs", simSelf, samples, nVMs)
	for _, kind := range []string{"synth", "tracedir"} {
		next := by[kind+".next"]
		v[kind+".next_s"] = next.secs
		v[kind+".records"] = float64(next.n)
		if kind == "synth" {
			v["synth.alloc_mib"] = float64(next.alloc) / mib
		}
	}
	wall := runSpan.dur()
	v["trace.run_s"] = wall
	lr.problem = nestingProblem(spans)
	if math.Abs(total-wall) > 1e-6*wall+1e-9 {
		lr.problem = fmt.Sprintf("span self times sum to %.6f s, run wall is %.6f s", total, wall)
	}
	lr.bases["sim.self_s"] = fmt.Sprintf("run wall %.4f s minus %.4f s in child spans", wall, wall-simSelf)
	return lr
}

// sweepLayers derives the per-layer values of one traced sweep pass.
func sweepLayers(spans []span, wall float64, slots int, fetch model.FetchStats) layerRun {
	by := sumByName(spans)
	lr := layerRun{values: map[string]float64{}, bases: map[string]string{}}
	v := lr.values
	next := by["tracedir.next"]
	v["tracedir.next_s"] = next.secs
	v["tracedir.records"] = float64(next.n)
	obj := by["objstore.serve"]
	v["objstore.requests"] = float64(obj.n)
	v["objstore.serve_s"] = obj.secs
	v["objstore.bytes"] = float64(obj.bytes)
	v["objstore.chunk_fetches"] = float64(fetch.ChunkFetches)
	v["objstore.fetch_retries"] = float64(fetch.FetchRetries)
	if looked := fetch.CacheHits + fetch.ChunkFetches; looked > 0 {
		v["objstore.cache_hit_ratio"] = float64(fetch.CacheHits) / float64(looked)
	}
	lr.bases["objstore.cache_hit_ratio"] = fmt.Sprintf("%d hits / (%d hits + %d fetches)", fetch.CacheHits, fetch.CacheHits, fetch.ChunkFetches)
	cell, handler := by["sweep.cell"], by["remote.handler"]
	v["sweep.runs"] = float64(cell.n)
	if slots > 0 && wall > 0 {
		v["sweep.slot_idle_frac"] = 1 - cell.secs/(float64(slots)*wall)
	}
	lr.bases["sweep.slot_idle_frac"] = fmt.Sprintf("1 - %.4f busy slot-s / (%d slots x %.4f s pass)", cell.secs, slots, wall)
	v["remote.handler_s"] = handler.secs
	v["remote.transport_s"] = cell.secs - handler.secs
	lr.bases["remote.transport_s"] = fmt.Sprintf("executor %.4f s - handler %.4f s over %d runs", cell.secs, handler.secs, cell.n)
	v["remote.bytes"] = float64(handler.bytes)
	v["trace.run_s"] = wall
	// A pass runs cells in parallel, so its spans account for slot time,
	// not wall time; what must hold is that every span sits inside the
	// span that caused it.
	lr.problem = nestingProblem(spans)
	if handler.n != cell.n {
		lr.problem = fmt.Sprintf("%d cell spans but %d worker handler spans", cell.n, handler.n)
	}
	return lr
}

// nestingProblem reports a span that ends outside the span that caused
// it, or "" when every recorded parent contains its children.
func nestingProblem(spans []span) string {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			return fmt.Sprintf("span %s %d lies outside its parent %s %d", s.Name, s.ID, p.Name, p.ID)
		}
	}
	return ""
}
