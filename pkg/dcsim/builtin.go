// builtin.go wires the engine's implementations into the registries. It is
// the only façade file that touches the unexported engine packages: every
// exported dcsim signature speaks pkg/dcsim/model, and an out-of-tree
// module registers its components exactly the way this file registers the
// built-ins.
package dcsim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/objstore"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/reg"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/tracedir"
	"repro/pkg/dcsim/model"
)

var (
	policyReg    = reg.New[PolicyFactory]("dcsim", "policy")
	governorReg  = reg.New[GovernorFactory]("dcsim", "governor")
	predictorReg = reg.New[PredictorFactory]("dcsim", "predictor")
	serverReg    = reg.New[ServerModel]("dcsim", "server model")
	workloadReg  = reg.New[model.WorkloadSource]("dcsim", "workload kind")
)

// synthSource is the built-in synthetic workload backend: the paper's
// Setup-2 datacenter generator, with the group structure optionally
// shuffled away ("uncorrelated"). Zero-valued workload fields select the
// generator defaults, mirroring Scenario.withDefaults.
type synthSource struct{ uncorrelated bool }

// Check implements model.WorkloadSource. Synthesis needs no I/O, so the
// only fail-fast conditions are configuration errors: a path (synthetic
// kinds read nothing from disk) or negative counts, which would otherwise
// silently select the defaults.
func (s synthSource) Check(w model.Workload) error {
	if w.Path != "" {
		return fmt.Errorf("dcsim: workload kind %q is synthetic and does not read a path (got %q)", w.Kind, w.Path)
	}
	if bad := w.UnknownOptions(); len(bad) > 0 {
		return fmt.Errorf("dcsim: workload kind %q reads no options, got %s", w.Kind, strings.Join(bad, ", "))
	}
	if w.VMs < 0 || w.Groups < 0 || w.Hours < 0 {
		return fmt.Errorf("dcsim: workload kind %q needs non-negative vms/groups/hours (0 = default), got %d/%d/%d",
			w.Kind, w.VMs, w.Groups, w.Hours)
	}
	return nil
}

// Traces implements model.WorkloadSource, deterministically in the seed.
func (s synthSource) Traces(w model.Workload) (*model.Dataset, error) {
	if err := s.Check(w); err != nil {
		return nil, err
	}
	cfg := s.config(w)
	if s.uncorrelated {
		return synth.Uncorrelated(cfg), nil
	}
	return synth.Datacenter(cfg), nil
}

// Open implements model.StreamingSource: the generator emits VM by VM, so
// large synthetic populations never exist as a whole Dataset — the state
// behind the stream is the shared group profiles plus one record in
// flight, and the records are sample-identical to Traces' output.
func (s synthSource) Open(ctx context.Context, w model.Workload) (model.DatasetReader, error) {
	if err := s.Check(w); err != nil {
		return nil, err
	}
	cfg := s.config(w)
	var st *synth.Stream
	if s.uncorrelated {
		st = synth.UncorrelatedStream(cfg)
	} else {
		st = synth.NewStream(cfg)
	}
	return model.ReaderWithContext(ctx, st), nil
}

// config maps the workload description onto the generator config, zero
// fields selecting the generator defaults.
func (s synthSource) config(w model.Workload) synth.DatacenterConfig {
	cfg := synth.DefaultDatacenterConfig()
	if w.VMs > 0 {
		cfg.VMs = w.VMs
	}
	if w.Groups > 0 {
		cfg.Groups = w.Groups
	}
	if w.Hours > 0 {
		cfg.Day = time.Duration(w.Hours) * time.Hour
	}
	if w.Seed != 0 {
		cfg.Seed = w.Seed
	}
	return cfg
}

// newCostSource builds the engine's streaming Eqn-1 cost matrix — the
// CostSource implementation Build.Matrix hands to components.
func newCostSource(n int, pctl float64) model.CostSource {
	return core.NewCostMatrix(n, pctl)
}

func init() {
	// Workload backends: the two synthetic generators the paper's Setup 2
	// uses, plus the recorded-trace readers — the same manifest+chunks
	// layout from a local directory or streamed from an HTTP(S) object
	// store. Out-of-tree modules register theirs exactly like this,
	// against model types alone.
	RegisterWorkload("datacenter", synthSource{})
	RegisterWorkload("uncorrelated", synthSource{uncorrelated: true})
	RegisterWorkload("trace-dir", tracedir.Source{})
	RegisterWorkload("trace-obj", objstore.Source{})

	// Placement policies. "corr" is a convenience alias for the paper's
	// correlation-aware allocator.
	corrAware := func(b *Build) (model.Policy, error) {
		cfg := core.DefaultConfig()
		if b.Scenario.Pctl > 0 {
			cfg.Pctl = b.Scenario.Pctl
		}
		cfg.THCost = b.Param("thcost", cfg.THCost)
		// alpha is Fig. 2's relaxation factor; outside (0, 1) the
		// allocator would substitute its default.
		cfg.Alpha = b.Param("alpha", cfg.Alpha)
		if !(cfg.Alpha > 0 && cfg.Alpha < 1) {
			return nil, fmt.Errorf("dcsim: param %q must be in (0, 1), got %v", "alpha", cfg.Alpha)
		}
		// alloc_block bounds each server fill's candidate set. Blocked
		// evaluation is the default (core.DefaultBlock, the measured
		// sweet spot — identical placements at the paper's scale, within
		// ~1% active servers at 1k-2k VMs, sub-quadratic at 10k+);
		// alloc_block=0 restores the exact Fig.-2 semantics at any scale.
		blk := b.Param("alloc_block", float64(cfg.Block))
		if !isInt(blk) || blk < 0 {
			return nil, fmt.Errorf("dcsim: param %q must be a non-negative integer (0 = exact evaluation), got %v", "alloc_block", blk)
		}
		cfg.Block = int(blk)
		return &core.Allocator{Config: cfg, Matrix: b.Matrix()}, nil
	}
	RegisterPolicy("corr-aware", corrAware)
	RegisterPolicy("corr", corrAware)
	RegisterPolicy("ffd", func(*Build) (model.Policy, error) { return place.FFD{}, nil })
	RegisterPolicy("bfd", func(*Build) (model.Policy, error) { return place.BFD{}, nil })
	// PCP carries an envelope-extraction cache for the run, so repeated
	// placements over one monitoring window reuse the bitsets instead of
	// re-extracting per decision (identical placements either way).
	RegisterPolicy("pcp", func(*Build) (model.Policy, error) {
		return place.PCP{Cache: envelope.NewCache()}, nil
	})
	RegisterPolicy("jointvm", func(*Build) (model.Policy, error) { return place.JointVM{}, nil })

	// Frequency governors. "corr-aware" aliases the paper's Eqn-4 governor.
	eqn4 := func(b *Build) (model.Governor, error) {
		return sim.CorrAware{Matrix: b.Matrix()}, nil
	}
	RegisterGovernor("eqn4", eqn4)
	RegisterGovernor("corr-aware", eqn4)
	RegisterGovernor("worst-case", func(*Build) (model.Governor, error) { return sim.WorstCase{}, nil })

	// Workload predictors (defaults are the paper's/DESIGN.md choices;
	// scenario params override the window/smoothing knobs).
	RegisterPredictor("last-value", func(*Build) (model.Predictor, error) { return predict.LastValue{}, nil })
	RegisterPredictor("moving-average", func(b *Build) (model.Predictor, error) {
		k, err := b.IntParam("ma_k", 3)
		if err != nil {
			return nil, err
		}
		return predict.MovingAverage{K: k}, nil
	})
	RegisterPredictor("ewma", func(b *Build) (model.Predictor, error) {
		// Outside (0, 1] the predictor would substitute its default.
		a := b.Param("ewma_alpha", 0.5)
		if !(a > 0 && a <= 1) {
			return nil, fmt.Errorf("dcsim: param %q must be in (0, 1], got %v", "ewma_alpha", a)
		}
		return predict.EWMA{Alpha: a}, nil
	})
	RegisterPredictor("max-of", func(b *Build) (model.Predictor, error) {
		k, err := b.IntParam("maxof_k", 3)
		if err != nil {
			return nil, err
		}
		return predict.MaxOf{K: k}, nil
	})

	// Server models. The Opteron has no fitted power model in the repo, so
	// the consolidation runs offer the Xeon and its hypothetical six-level
	// variant (ablation A7's hardware axis); the web-search testbed pins
	// its own hardware.
	RegisterServer("xeon-e5410", ServerModel{Spec: server.XeonE5410(), Power: power.XeonE5410()})
	RegisterServer("xeon-6level", ServerModel{Spec: server.XeonFineGrained(), Power: power.XeonFineGrained()})
}
