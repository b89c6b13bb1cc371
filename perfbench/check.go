package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/pkg/dcsim"
)

// unit is one checked unit of work: a dcsim.Run, or a sweep pass of many
// cell-runs.
type unit struct {
	input        int       // which of the seed's inputs the unit ran
	runSeconds   []float64 // host seconds per simulation run, as the caller saw it
	runKeys      []int     // what each run ran: its input, or its sweep cell
	wall         float64   // wall seconds of the whole unit
	attempted    int       // simulation runs attempted
	failed       int       // runs that failed a check
	energyKWh    float64
	violationPct float64
	bytes        []byte // the unit's canonical output: Result JSON or sweep CSV
	problems     []string
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkResult tests the invariants every Result must satisfy and returns
// one line per violation.
func checkResult(r *dcsim.Result, periodSamples int) []string {
	var errs []string
	energy, migrations, activeSamples := 0.0, 0, 0
	inRange := func(what string, v float64) {
		if !(v >= 0 && v <= 100) {
			errs = append(errs, fmt.Sprintf("%s = %v outside [0, 100]", what, v))
		}
	}
	for _, p := range r.Periods {
		energy += p.EnergyJ
		migrations += p.Migrations
		activeSamples += p.ActiveServers * periodSamples
		inRange(fmt.Sprintf("period %d violation", p.Period), p.MaxViolationPct)
	}
	if math.Abs(energy-r.EnergyJ) > 1e-9*math.Abs(r.EnergyJ) {
		errs = append(errs, fmt.Sprintf("period energies sum to %v J, result says %v J", energy, r.EnergyJ))
	}
	if migrations != r.TotalMigrations {
		errs = append(errs, fmt.Sprintf("period migrations sum to %d, result says %d", migrations, r.TotalMigrations))
	}
	residency := 0
	for _, levels := range r.FreqResidency {
		for _, c := range levels {
			residency += c
		}
	}
	if residency != activeSamples {
		errs = append(errs, fmt.Sprintf("frequency residency sums to %d, samples x active servers is %d", residency, activeSamples))
	}
	inRange("max violation", r.MaxViolationPct)
	inRange("mean violation", r.MeanViolationPct)
	return errs
}

// keyMedians groups the runs by key and returns each key's median.
func keyMedians(keys []int, xs []float64) map[int]float64 {
	byKey := map[int][]float64{}
	for i, k := range keys {
		byKey[k] = append(byKey[k], xs[i])
	}
	meds := make(map[int]float64, len(byKey))
	for k, g := range byKey {
		meds[k] = median(g)
	}
	return meds
}

// meanOfMedians returns the mean over keys of each key's median run time,
// with the number of keys. Runs of different inputs or sweep cells take
// different times; a median over all of them would jump between the
// groups as their times shift, and this figure does not.
func meanOfMedians(keys []int, xs []float64) (float64, int) {
	sum := 0.0
	meds := keyMedians(keys, xs)
	for _, m := range meds {
		sum += m
	}
	return sum / float64(len(meds)), len(meds)
}

// relativeToMedians returns each run's time over its key's median.
func relativeToMedians(keys []int, xs []float64) []float64 {
	meds := keyMedians(keys, xs)
	rel := make([]float64, len(xs))
	for i, k := range keys {
		rel[i] = xs[i] / meds[k]
	}
	return rel
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the slowest sample that still has at least ten samples beyond
// it, with its percentile and the sample count. Below eleven samples no
// percentile qualifies; tail then reports the maximum with ok false.
type tailStat struct {
	value, pct float64
	n          int
	ok         bool
}

func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return tailStat{value: s[n-1], pct: 100, n: n}
	}
	k := n - 11
	return tailStat{value: s[k], pct: 100 * float64(k+1) / float64(n), n: n, ok: true}
}
