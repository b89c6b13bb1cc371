// Datacenter reproduces the paper's Setup 2 as a façade walkthrough: a day
// of synthetic utilization traces for 40 VMs in correlated service groups,
// consolidated hourly onto 20 Xeon servers under three policies selected by
// registry name, with static Eqn-4 frequency planning for the proposed one.
package main

import (
	"context"
	"fmt"

	"repro/pkg/dcsim"
)

func main() {
	sc := dcsim.DefaultScenario()
	fmt.Printf("Setup 2: %d VMs x %dh (%d service groups) on <=%d servers\n\n",
		sc.Workload.VMs, sc.Workload.Hours, sc.Workload.Groups, sc.MaxServers)

	run := func(policy, governor string) *dcsim.Result {
		res, err := dcsim.Run(context.Background(), dcsim.Scenario{Policy: policy, Governor: governor})
		if err != nil {
			panic(fmt.Sprintf("%s: %v", policy, err))
		}
		return res
	}

	bfd := run("bfd", "worst-case")
	pcp := run("pcp", "worst-case")
	prop := run("corr-aware", "eqn4")

	t := dcsim.NewTable("policy", "normalized power", "max violations (%)", "mean active servers")
	for _, r := range []struct {
		name string
		res  *dcsim.Result
	}{{"BFD", bfd}, {"PCP", pcp}, {"Proposed", prop}} {
		t.AddRow(r.name,
			fmt.Sprintf("%.3f", r.res.NormalizedPower(bfd)),
			fmt.Sprintf("%.1f", r.res.MaxViolationPct),
			fmt.Sprintf("%.1f", r.res.MeanActive))
	}
	fmt.Print(t)
	fmt.Println()
	fmt.Printf("Proposed saves %.1f%% power and removes %.1f pp of violations vs BFD\n",
		100*(1-prop.NormalizedPower(bfd)), bfd.MaxViolationPct-prop.MaxViolationPct)
	fmt.Println("(PCP tracks BFD because envelope clustering collapses to one cluster")
	fmt.Println(" on fast-changing scale-out traces — the paper's Section V-B observation.)")
}
