package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
)

// simTarget drives a scenario through dcsim.Run, one run at a time, over
// the inputs the seed makes, in turn.
type simTarget struct {
	scs []dcsim.Scenario // normalized, one per input, its seed applied
	// next is the input of the next untraced and the next traced run.
	// Each kind of run takes the inputs in turn on its own, so when the
	// two alternate, each traced run has the input of the untraced run
	// before it and the tracing overhead compares like with like.
	next [2]int
	rec  *recorder // nil unless tracing
}

// setupSim resolves the scenario for each of the seed's inputs, validates
// it against the registries, and generates its whole input once.
func setupSim(ctx context.Context, def workloadDef, seed int64, rec *recorder) (*simTarget, error) {
	t := &simTarget{rec: rec}
	for i := range max(def.Inputs, 1) {
		sc := def.Scenario
		sc.Workload.Seed = inputSeed(seed, i, max(def.Inputs, 1))
		sc = sc.Normalized()
		if err := dcsim.CheckScenario(sc); err != nil {
			return nil, err
		}
		if err := checkInput(ctx, sc); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		t.scs = append(t.scs, sc)
	}
	return t, nil
}

// inputSeed is the workload seed of input i of n that --seed makes; one
// input keeps the seed as given, and distinct seeds never share an input.
func inputSeed(seed int64, i, n int) int64 {
	return seed*int64(n) + int64(i)
}

// checkInput streams the scenario's whole input and checks its shape: as
// many uniquely named VMs as the scenario asks for, each with the same
// number of samples at the same interval.
func checkInput(ctx context.Context, sc dcsim.Scenario) error {
	r, err := dcsim.OpenTraces(ctx, sc.Workload)
	if err != nil {
		return err
	}
	defer r.Close()
	names := make(map[string]bool, r.Len())
	var first *model.Series
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("workload record %d: %w", len(names), err)
		}
		if first == nil {
			first = rec.Fine
		}
		if names[rec.Name] || rec.Fine.Len() != first.Len() || rec.Fine.Interval() != first.Interval() {
			return fmt.Errorf("workload record %q is a duplicate or differs in length or interval", rec.Name)
		}
		names[rec.Name] = true
	}
	if len(names) != sc.Workload.VMs {
		return fmt.Errorf("workload has %d VMs, scenario asks for %d", len(names), sc.Workload.VMs)
	}
	return nil
}

// take returns the input of the next untraced or traced run and its
// scenario.
func (t *simTarget) take(traced bool) (int, dcsim.Scenario) {
	k := 0
	if traced {
		k = 1
	}
	i := t.next[k]
	t.next[k] = (i + 1) % len(t.scs)
	return i, t.scs[i]
}

// run is one untraced dcsim.Run, checked.
func (t *simTarget) run(ctx context.Context, obs ...dcsim.Observer) (unit, error) {
	input, sc := t.take(false)
	start := time.Now()
	res, err := dcsim.Run(ctx, sc, obs...)
	el := time.Since(start).Seconds()
	if err != nil {
		return unit{}, err
	}
	return unitOf(res, input, sc.PeriodSamples, el)
}

func unitOf(res *dcsim.Result, input, periodSamples int, seconds float64) (unit, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return unit{}, err
	}
	u := unit{
		input:        input,
		runSeconds:   []float64{seconds},
		runKeys:      []int{input},
		wall:         seconds,
		attempted:    1,
		energyKWh:    res.EnergyJ / 3.6e6,
		violationPct: res.MeanViolationPct,
		bytes:        data,
	}
	if errs := checkResult(res, periodSamples); len(errs) > 0 {
		u.failed = 1
		u.problems = errs
	}
	return u, nil
}

// once is one untraced run. With memory it forces a GC at every period
// boundary and reports the largest live heap seen.
func (t *simTarget) once(ctx context.Context, memory bool) (unit, uint64, error) {
	if !memory {
		u, err := t.run(ctx)
		return u, 0, err
	}
	var peak uint64
	var ms runtime.MemStats
	u, err := t.run(ctx, dcsim.PeriodFunc(func(dcsim.Period) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}))
	return u, peak, err
}

func (t *simTarget) close() {}

// traced runs the scenario with every layer interface decorated. It
// assembles the run from the same registries dcsim.Run uses, then points
// the built-in matrix readers (core.Allocator, sim.CorrAware) at the
// decorated cost matrix, so Add/Reset/Cost go through the decorator too.
// The Result must equal the untraced run's byte for byte.
func (t *simTarget) traced(ctx context.Context, runID int64) (unit, layerRun, error) {
	input, sc := t.take(true)
	rec := t.rec
	tr := &simTracer{rec: rec, run: runID, alloc: newAllocCounter()}
	root := rec.begin("run", 0, runID)
	tr.root = root.ID
	start := time.Now()

	r, err := dcsim.OpenTraces(ctx, sc.Workload)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	name := "synth.next"
	if sc.Workload.Kind == "trace-dir" || sc.Workload.Kind == "trace-obj" {
		name = "tracedir.next"
	}
	tracedR := &tracedReader{DatasetReader: r, rec: rec, name: name, parent: root.ID, run: runID, alloc: tr.alloc}
	var vms []*dcsim.VM
	for {
		vr, err := tracedR.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			return unit{}, layerRun{}, err
		}
		vms = append(vms, model.NewVM(vr.Name, vr.Fine))
	}
	r.Close()

	b := &dcsim.Build{Scenario: sc, NVMs: len(vms)}
	server, err := dcsim.LookupServer(sc.Server)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	pol, err := dcsim.NewPolicy(sc.Policy, b)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	gov, err := dcsim.NewGovernor(sc.Governor, b)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	pred, err := dcsim.NewPredictor(sc.Predictor, b)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	var matrix model.CostSource
	if a, ok := pol.(*core.Allocator); ok {
		matrix = tracedCost{a.Matrix, tr}
		a.Matrix = matrix
	}
	if g, ok := gov.(sim.CorrAware); ok {
		if matrix == nil {
			matrix = tracedCost{g.Matrix, tr}
		}
		g.Matrix = matrix
		gov = g
	}
	if matrix != nil && b.Matrix() != matrix.(tracedCost).CostSource {
		return unit{}, layerRun{}, fmt.Errorf("components read different cost matrices")
	}
	res, err := sim.Run(vms, sim.Config{
		Spec:             server.Spec,
		Power:            server.Power,
		Policy:           tracedPolicy{pol, tr},
		Governor:         tracedGovernor{gov, tr},
		MaxServers:       sc.MaxServers,
		PeriodSamples:    sc.PeriodSamples,
		RescaleEvery:     sc.RescaleEvery,
		Pctl:             sc.Pctl,
		OffPctl:          sc.OffPctl,
		Predictor:        tracedPredictor{pred, tr},
		Matrix:           matrix,
		CumulativeMatrix: sc.CumulativeMatrix,
		Oracle:           sc.Oracle,
		Ctx:              ctx,
	})
	el := time.Since(start).Seconds()
	rec.end(root)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	u, err := unitOf(res, input, sc.PeriodSamples, el)
	if err != nil {
		return unit{}, layerRun{}, err
	}
	var matrixAlloc int64
	if matrix != nil {
		// The run's matrix was built inside the policy or governor
		// factory; measure, outside the run span, what constructing one
		// of that size allocates.
		a := tr.alloc.read()
		(&dcsim.Build{Scenario: sc, NVMs: len(vms)}).Matrix()
		matrixAlloc = tr.alloc.read() - a
	}
	samples := int64(len(res.Periods) * sc.PeriodSamples)
	lr := simLayers(rec.ofRun(runID), len(vms), samples, tr.costReads.Load(), matrixAlloc)
	return u, lr, nil
}
