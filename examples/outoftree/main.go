// Example outoftree proves the dependency inversion: it implements a
// placement policy and a workload predictor against pkg/dcsim/model alone,
// registers both through the pkg/dcsim registries, and sweeps them against
// the built-ins on a grid — without importing a single engine package.
// Everything it does, a component shipped as a separate Go module can do
// identically.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// Spread is a deliberately naive anti-consolidation policy: VMs in
// decreasing û order, each onto the currently least-provisioned server of a
// fixed-size pool. It wastes energy (servers never consolidate off), which
// makes it an instructive contrast against BFD in the sweep below — and a
// minimal demonstration that model.Policy is implementable from outside.
type Spread struct {
	// Servers is the pool size to spread over (capped at maxServers).
	Servers int
}

// Name implements model.Policy.
func (Spread) Name() string { return "Spread" }

// Place implements model.Policy.
func (p Spread) Place(reqs []model.Request, spec model.ServerSpec, maxServers int) (*model.Placement, error) {
	if maxServers < 1 {
		return nil, model.ErrNoServers
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := p.Servers
	if n < 1 || n > maxServers {
		n = maxServers
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].Ref > reqs[order[b]].Ref })

	load := make([]float64, n)
	assign := make([]int, len(reqs))
	for _, i := range order {
		least := 0
		for s := 1; s < n; s++ {
			if load[s] < load[least] {
				least = s
			}
		}
		load[least] += reqs[i].Ref
		assign[i] = least
	}
	return &model.Placement{NumServers: n, Assign: assign}, nil
}

// Hedge is a custom predictor: a convex blend of the last value and the
// recent maximum, trading the paper's last-value reactivity against
// max-of's over-provisioning. Bias 0 is pure last-value, 1 pure max.
type Hedge struct {
	Bias float64
	K    int
}

// Name implements model.Predictor.
func (h Hedge) Name() string { return fmt.Sprintf("hedge(%.2f)", h.Bias) }

// Predict implements model.Predictor.
func (h Hedge) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	last := history[len(history)-1]
	k := h.K
	if k < 1 {
		k = 3
	}
	if k > len(history) {
		k = len(history)
	}
	max := 0.0
	for i, v := range history[len(history)-k:] {
		if i == 0 || v > max {
			max = v
		}
	}
	return (1-h.Bias)*last + h.Bias*max
}

func init() {
	// Registration is identical for an out-of-tree module: implement the
	// model contracts, then hang factories on the façade registries. The
	// hedge predictor reads its knobs through Build.Param, so scenarios
	// and sweep grids can tune it like any built-in ("param:hedge_bias"
	// axes), with the same typo-rejecting params contract.
	dcsim.RegisterPolicy("spread", func(b *dcsim.Build) (model.Policy, error) {
		return Spread{}, nil
	})
	dcsim.RegisterPredictor("hedge", func(b *dcsim.Build) (model.Predictor, error) {
		k, err := b.IntParam("hedge_k", 3)
		if err != nil {
			return nil, err
		}
		return Hedge{Bias: b.Param("hedge_bias", 0.5), K: k}, nil
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("outoftree: ")

	fmt.Println("policies now registered:  ", dcsim.Policies())
	fmt.Println("predictors now registered:", dcsim.Predictors())
	fmt.Println()

	// Sweep the out-of-tree components against the built-ins on a small
	// grid: policy × predictor, two seed replicas per cell.
	grid := sweep.Grid{
		Name: "outoftree-demo",
		// Every policy runs under the Eqn-4 governor.
		Base: dcsim.Scenario{
			Workload:   dcsim.Workload{VMs: 16, Groups: 4, Hours: 6},
			Governor:   "eqn4",
			MaxServers: 8,
		},
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "spread", "corr-aware"}},
			{Field: "predictor", Values: []any{"last-value", "hedge"}},
		},
		Replicas: 2,
	}
	res, err := sweep.Run(context.Background(), grid, sweep.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	var baseline float64
	for _, c := range res.Cells {
		if c.Scenario.Policy == "bfd" && c.Scenario.Predictor == "last-value" {
			baseline = c.EnergyJ.Mean
		}
	}
	fmt.Printf("%-12s %-12s %16s %16s %12s\n", "policy", "predictor", "norm. power", "max viol (%)", "mean active")
	for _, c := range res.Cells {
		norm := 0.0
		if baseline > 0 {
			norm = c.EnergyJ.Mean / baseline
		}
		fmt.Printf("%-12s %-12s %16.3f %16.1f %12.1f\n",
			c.Scenario.Policy, c.Scenario.Predictor,
			norm, c.MaxViolationPct.Mean, c.MeanActive.Mean)
	}
}
