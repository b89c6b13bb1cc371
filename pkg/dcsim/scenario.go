package dcsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/pkg/dcsim/model"
)

// Workload describes the VM demand-trace source of a Scenario: a kind from
// the workload-kind registry plus the fields a backend needs to reproduce
// the traces deterministically. It is the contract type model.Workload.
type Workload = model.Workload

// Scenario is the JSON-serializable description of one simulation run: the
// server model, workload source, policy/governor/predictor registry names,
// and horizon parameters. Zero values are filled by defaults at Run time,
// so a sparse Go literal and a sparse config file describe the same run;
// the JSON encoding is the one schema of a run's fields.
type Scenario struct {
	// Name labels the run in output; it does not affect simulation.
	Name string `json:"name,omitempty"`
	// Server is the server-model registry name (default "xeon-e5410").
	Server string `json:"server"`
	// Workload is the VM demand-trace source.
	Workload Workload `json:"workload"`
	// Policy is the placement-policy registry name (see Policies).
	Policy string `json:"policy"`
	// Governor is the frequency-governor registry name (see Governors).
	// Empty pairs with the policy: "eqn4" for the correlation-aware
	// policy, the baselines' "worst-case" otherwise — mirroring the
	// paper's setups, so a sparse config naming only a baseline policy
	// is not silently granted the correlation-aware frequency planner.
	Governor string `json:"governor"`
	// Predictor is the predictor registry name (see Predictors).
	Predictor string `json:"predictor"`
	// MaxServers is the server pool size.
	MaxServers int `json:"max_servers"`
	// PeriodSamples is tperiod in samples (paper: 720 = 1 h of 5-s samples).
	PeriodSamples int `json:"period_samples"`
	// RescaleEvery enables dynamic v/f scaling every so many samples
	// (paper: 12 = 1 min); 0 keeps levels static within a period.
	RescaleEvery int `json:"rescale_every,omitempty"`
	// Pctl is the reference percentile for û (>= 1 = peak).
	Pctl float64 `json:"pctl"`
	// OffPctl is the off-peak percentile PCP provisions with (0 -> 0.9).
	OffPctl float64 `json:"off_pctl,omitempty"`
	// CumulativeMatrix keeps correlation statistics across period
	// boundaries instead of resetting each monitoring window.
	CumulativeMatrix bool `json:"cumulative_matrix,omitempty"`
	// Oracle replaces the predictor with perfect next-period knowledge.
	Oracle bool `json:"oracle,omitempty"`
	// Params are scenario-level component parameters, keyed by name and
	// read by the component factories at Run time (see Build.Param):
	// "thcost" and "alpha" tune the correlation-aware allocator,
	// "ma_k"/"ewma_alpha"/"maxof_k" tune the matching predictors. A param
	// no selected component reads is an error, so config typos fail
	// instead of silently running the defaults.
	Params map[string]float64 `json:"params,omitempty"`
}

// DefaultScenario is the paper's Setup-2 operating point: 40 VMs in 8
// service groups over 24 h, consolidated hourly onto at most 20 Xeon
// servers with the correlation-aware policy and Eqn-4 governor.
func DefaultScenario() Scenario {
	return Scenario{
		Server: "xeon-e5410",
		Workload: Workload{
			Kind:   "datacenter",
			VMs:    40,
			Groups: 8,
			Hours:  24,
			Seed:   1,
		},
		Policy:        "corr-aware",
		Governor:      "eqn4",
		Predictor:     "last-value",
		MaxServers:    20,
		PeriodSamples: 720,
		Pctl:          1,
	}
}

// SetParam sets one scenario-level component parameter. The params map is
// copied on first write, so scenarios derived from a shared base (as sweep
// grids do) never alias each other's parameters.
func (s *Scenario) SetParam(name string, value float64) {
	params := make(map[string]float64, len(s.Params)+1)
	for k, v := range s.Params {
		params[k] = v
	}
	params[name] = value
	s.Params = params
}

// withDefaults fills zero-valued fields from DefaultScenario, so sparse
// JSON configs and hand-built literals get the same sane baseline.
func (s Scenario) withDefaults() Scenario {
	d := DefaultScenario()
	if s.Server == "" {
		s.Server = d.Server
	}
	if s.Workload.Kind == "" {
		s.Workload.Kind = d.Workload.Kind
	}
	if s.Workload.VMs == 0 {
		s.Workload.VMs = d.Workload.VMs
	}
	if s.Workload.Groups == 0 {
		s.Workload.Groups = d.Workload.Groups
	}
	if s.Workload.Hours == 0 {
		s.Workload.Hours = d.Workload.Hours
	}
	if s.Workload.Seed == 0 {
		s.Workload.Seed = d.Workload.Seed
	}
	if s.Policy == "" {
		s.Policy = d.Policy
	}
	if s.Governor == "" {
		if s.Policy == "corr-aware" || s.Policy == "corr" {
			s.Governor = "eqn4"
		} else {
			s.Governor = "worst-case"
		}
	}
	if s.Predictor == "" {
		s.Predictor = d.Predictor
	}
	if s.MaxServers == 0 {
		s.MaxServers = d.MaxServers
	}
	if s.PeriodSamples == 0 {
		s.PeriodSamples = d.PeriodSamples
	}
	if s.Pctl == 0 {
		s.Pctl = d.Pctl
	}
	return s
}

// Normalized returns the scenario with every unset field filled by its
// default — the exact configuration Run will execute, useful for echoing
// the effective parameters of a sparse scenario.
func (s Scenario) Normalized() Scenario { return s.withDefaults() }

// Validate reports structural problems a registry lookup would not catch.
func (s Scenario) Validate() error {
	if s.Workload.VMs < 1 {
		return errors.New("dcsim: workload needs at least one VM")
	}
	if s.Workload.Groups < 1 {
		return errors.New("dcsim: workload needs at least one group")
	}
	if s.Workload.Hours < 1 {
		return errors.New("dcsim: workload needs at least one hour")
	}
	if s.MaxServers < 1 {
		return errors.New("dcsim: MaxServers must be at least 1")
	}
	if s.PeriodSamples < 1 {
		return errors.New("dcsim: PeriodSamples must be at least 1")
	}
	if s.RescaleEvery < 0 {
		return errors.New("dcsim: RescaleEvery must be non-negative")
	}
	for name, v := range s.Params {
		if name == "" {
			return errors.New("dcsim: empty param name")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dcsim: param %q is %v", name, v)
		}
	}
	// Option values are backend-validated (CheckWorkload); only the keys
	// have a structural rule.
	for key := range s.Workload.Options {
		if key == "" {
			return errors.New("dcsim: empty workload option key")
		}
	}
	return nil
}

// ParseScenario decodes a JSON scenario, rejecting unknown fields and
// filling unset ones with defaults.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("dcsim: parse scenario: %w", err)
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// LoadScenario reads a JSON scenario file via ParseScenario.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("dcsim: load scenario: %w", err)
	}
	return ParseScenario(data)
}
