package dcsim

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestRunAccountingProperties checks that a run's accounting adds up, for
// every policy × governor × reference percentile × static/dynamic v/f
// combination on a small datacenter workload:
//
//   - the per-period energies sum to the run's EnergyJ;
//   - FreqResidency counts exactly one sample per active server per
//     sample, so its total equals the per-sample ActiveServers summed by
//     an observer;
//   - no sample reports more active servers than the pool holds.
func TestRunAccountingProperties(t *testing.T) {
	const maxServers = 5
	for _, policy := range []string{"corr-aware", "pcp", "ffd"} {
		for _, governor := range []string{"eqn4", "worst-case"} {
			for _, pctl := range []float64{1, 0.95} {
				for _, rescale := range []int{0, 12} {
					name := fmt.Sprintf("%s/%s/pctl=%v/rescale=%d", policy, governor, pctl, rescale)
					t.Run(name, func(t *testing.T) {
						sc := New(WithVMs(12), WithGroups(3), WithHours(3), WithSeed(5),
							WithMaxServers(maxServers), WithPolicy(policy), WithGovernor(governor),
							WithPctl(pctl), WithRescaleEvery(rescale))
						samples, activeSum, overCap := 0, 0, 0
						res, err := Run(context.Background(), sc, ObserverFunc(func(s Sample) {
							samples++
							activeSum += s.ActiveServers
							if s.ActiveServers > maxServers {
								overCap++
							}
						}))
						if err != nil {
							t.Fatal(err)
						}
						if samples == 0 || len(res.Periods) != 3 {
							t.Fatalf("%d samples over %d periods, want 3 periods", samples, len(res.Periods))
						}
						if overCap > 0 {
							t.Fatalf("%d samples report more than %d active servers", overCap, maxServers)
						}
						periodSum := 0.0
						for _, p := range res.Periods {
							periodSum += p.EnergyJ
						}
						if math.Abs(periodSum-res.EnergyJ) > 1e-9*math.Abs(res.EnergyJ) {
							t.Fatalf("period energies sum to %v J, run EnergyJ %v J", periodSum, res.EnergyJ)
						}
						residency := 0
						for _, levels := range res.FreqResidency {
							for _, c := range levels {
								residency += c
							}
						}
						if residency != activeSum {
							t.Fatalf("FreqResidency totals %d server-samples, observer counted %d", residency, activeSum)
						}
					})
				}
			}
		}
	}
}
