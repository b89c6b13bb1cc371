// Quickstart: the smallest end-to-end use of the public pkg/dcsim API.
//
// Describe a scenario as a sparse literal over the Setup-2 defaults,
// stream per-period metrics through an Observer while it runs, and compare
// the correlation-aware policy against best-fit-decreasing — both selected
// from the registry by name.
package main

import (
	"context"
	"fmt"
	"strings"

	"repro/pkg/dcsim"
)

func main() {
	fmt.Println("registered policies:  ", strings.Join(dcsim.Policies(), ", "))
	fmt.Println("registered governors: ", strings.Join(dcsim.Governors(), ", "))
	fmt.Println("registered predictors:", strings.Join(dcsim.Predictors(), ", "))
	fmt.Println()

	// A small scenario: 16 VMs in 4 correlated groups over 6 hours,
	// consolidated hourly onto at most 8 servers. Unset fields (policy,
	// governor, server, ...) take their defaults.
	sc := dcsim.Scenario{
		Workload:   dcsim.Workload{VMs: 16, Groups: 4, Hours: 6, Seed: 1},
		MaxServers: 8,
	}

	// Observers stream metrics while the run is in flight; a context
	// would let us stop it early (see the README's cancellation example).
	live := dcsim.PeriodFunc(func(p dcsim.Period) {
		fmt.Printf("  period %d: %d active servers, %.1f kJ, max viol %.1f%%\n",
			p.Period, p.ActiveServers, p.EnergyJ/1000, p.MaxViolationPct)
	})

	fmt.Println("correlation-aware run:")
	corr, err := dcsim.Run(context.Background(), sc, live)
	if err != nil {
		panic(err)
	}

	// Same scenario, baseline policy. The unset governor pairs with it:
	// worst-case for a baseline, eqn4 for the correlation-aware policy.
	baseline := sc
	baseline.Policy = "bfd"
	bfd, err := dcsim.Run(context.Background(), baseline)
	if err != nil {
		panic(err)
	}

	fmt.Println()
	t := dcsim.NewTable("policy", "energy (kJ)", "max viol (%)", "mean active")
	for _, r := range []*dcsim.Result{bfd, corr} {
		t.AddRow(r.Policy, fmt.Sprintf("%.1f", r.EnergyJ/1000),
			fmt.Sprintf("%.1f", r.MaxViolationPct), fmt.Sprintf("%.1f", r.MeanActive))
	}
	fmt.Print(t)
	fmt.Printf("\ncorrelation-aware consolidation uses %.3fx the baseline's energy\n",
		corr.NormalizedPower(bfd))
}
