package dcsim

import (
	"context"
	"strings"
	"testing"
)

// smallWith is small() with one param set and, when predictor is
// non-empty, that predictor selected.
func smallWith(predictor, param string, value float64) Scenario {
	sc := small()
	if predictor != "" {
		sc.Predictor = predictor
	}
	sc.SetParam(param, value)
	return sc
}

func TestParamsChangeBehavior(t *testing.T) {
	// A prohibitive THcost forbids all co-location of correlated VMs, so
	// the allocator must spread further than the default run.
	def, err := Run(context.Background(), small())
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(context.Background(), smallWith("", "thcost", 50))
	if err != nil {
		t.Fatal(err)
	}
	if strict.MeanActive < def.MeanActive {
		t.Fatalf("THcost=50 mean active %v below default %v; param not applied",
			strict.MeanActive, def.MeanActive)
	}
}

func TestUnknownParamFails(t *testing.T) {
	sc := smallWith("", "htcost", 1.2)
	_, err := Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "htcost") {
		t.Fatalf("err = %v, want unread-param failure naming the typo", err)
	}
	// CheckScenario catches the same misconfiguration without running.
	if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), "htcost") {
		t.Fatalf("CheckScenario = %v, want unread-param failure", err)
	}
}

func TestParamForWrongComponentFails(t *testing.T) {
	// ewma_alpha belongs to the ewma predictor; with last-value selected
	// nothing reads it, and silently ignoring it would fake an ablation.
	sc := smallWith("", "ewma_alpha", 0.3)
	if _, err := Run(context.Background(), sc); err == nil {
		t.Fatal("ewma_alpha with last-value predictor should fail")
	}
	sc = smallWith("ewma", "ewma_alpha", 0.3)
	if _, err := Run(context.Background(), sc); err != nil {
		t.Fatalf("ewma_alpha with ewma predictor: %v", err)
	}
}

func TestCountParamRejectsFractions(t *testing.T) {
	// ma_k names a window size; truncating 2.5 to 2 would silently run a
	// different predictor than configured.
	sc := smallWith("moving-average", "ma_k", 2.5)
	if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "ma_k") {
		t.Fatalf("err = %v, want fractional-count rejection", err)
	}
	if err := CheckScenario(sc); err == nil {
		t.Fatal("CheckScenario should reject fractional ma_k without running")
	}
	sc = smallWith("max-of", "maxof_k", 0)
	if _, err := Run(context.Background(), sc); err == nil {
		t.Fatal("non-positive count param should fail")
	}
}

func TestAllocBlockParam(t *testing.T) {
	// alloc_block=0 must select exact Fig.-2 evaluation (a valid value,
	// not an error), and fractional or negative blocks must be rejected.
	if _, err := Run(context.Background(), smallWith("", "alloc_block", 0)); err != nil {
		t.Fatalf("alloc_block=0 (exact mode): %v", err)
	}
	for _, bad := range []float64{2.5, -1} {
		sc := smallWith("", "alloc_block", bad)
		if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "alloc_block") {
			t.Fatalf("alloc_block=%v: err = %v, want rejection", bad, err)
		}
	}
}

// TestParamRejections pins the fail-loud params contract on values a
// factory once replaced silently: each row must fail both CheckScenario
// and Run, with an error naming the param.
func TestParamRejections(t *testing.T) {
	for _, tc := range []struct {
		name      string
		predictor string
		param     string
		value     float64
	}{
		// The intra-run worker-count knob is gone; setting it is an
		// unread param like any typo.
		{"alloc_parallel=4", "", "alloc_parallel", 4},
		// int() of an out-of-range float is a negative int, which the
		// factories used to clamp to 1 or to exact evaluation.
		{"ma_k=1e19", "moving-average", "ma_k", 1e19},
		{"maxof_k=1e19", "max-of", "maxof_k", 1e19},
		{"alloc_block=1e19", "", "alloc_block", 1e19},
		// Out-of-range smoothing and relaxation factors used to become
		// the predictor's 0.5 and the allocator's 0.9.
		{"ewma_alpha=2", "ewma", "ewma_alpha", 2},
		{"ewma_alpha=-1", "ewma", "ewma_alpha", -1},
		{"ewma_alpha=0", "ewma", "ewma_alpha", 0},
		{"alpha=5", "", "alpha", 5},
		{"alpha=1", "", "alpha", 1},
		{"alpha=0", "", "alpha", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := smallWith(tc.predictor, tc.param, tc.value)
			if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), tc.param) {
				t.Fatalf("CheckScenario = %v, want a rejection naming %q", err, tc.param)
			}
			if _, err := Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), tc.param) {
				t.Fatalf("Run err = %v, want a rejection naming %q", err, tc.param)
			}
		})
	}
	// The boundaries stay valid.
	for _, sc := range []Scenario{
		smallWith("ewma", "ewma_alpha", 1),
		smallWith("", "alpha", 0.5),
		smallWith("max-of", "maxof_k", 1),
	} {
		if err := CheckScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckScenarioWorkloadKind(t *testing.T) {
	sc := small()
	sc.Workload.Kind = "datacentre"
	if err := CheckScenario(sc); err == nil || !strings.Contains(err.Error(), "datacentre") {
		t.Fatalf("err = %v, want unknown-kind rejection before any run", err)
	}
	sc.Workload.Kind = "uncorrelated"
	if err := CheckScenario(sc); err != nil {
		t.Fatal(err)
	}
}

func TestWithParamCopiesOnWrite(t *testing.T) {
	base := smallWith("", "thcost", 1.15)
	derived := base
	derived.SetParam("thcost", 1.4)
	if base.Params["thcost"] != 1.15 {
		t.Fatalf("derived scenario mutated its base: %v", base.Params)
	}
	if derived.Params["thcost"] != 1.4 {
		t.Fatalf("derived params = %v", derived.Params)
	}
}

func TestParseScenarioParams(t *testing.T) {
	sc, err := ParseScenario([]byte(`{"policy": "corr-aware", "params": {"thcost": 1.25, "alpha": 0.8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params["thcost"] != 1.25 || sc.Params["alpha"] != 0.8 {
		t.Fatalf("params = %v", sc.Params)
	}
	if err := CheckScenario(sc); err != nil {
		t.Fatal(err)
	}
	// Non-finite values are rejected structurally.
	if _, err := ParseScenario([]byte(`{"params": {"thcost": 1e999}}`)); err == nil {
		t.Fatal("overflowing param should fail to parse")
	}
}
