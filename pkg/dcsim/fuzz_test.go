package dcsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// materializeScenario is a scenario file written for the retired
// whole-Dataset ingest switch; it must now be rejected as an unknown field
// (TestParseScenarioRejectsUnknownFields).
const materializeScenario = `{"workload": {"vms": 8, "groups": 2, "hours": 2}, "max_servers": 4, "materialize": true}`

// exampleGridBases returns the base scenario of every example grid — the
// scenario JSON shapes the repository ships.
func exampleGridBases(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "grids", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("example grids: %v (%d found)", err, len(paths))
	}
	var bases [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var g struct {
			Base json.RawMessage `json:"base"`
		}
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		bases = append(bases, g.Base)
	}
	return bases
}

// FuzzParseScenario feeds arbitrary bytes to the scenario decoder. It must
// never panic, every scenario it accepts must pass Validate, and an
// accepted scenario must survive a marshal/parse round trip unchanged.
func FuzzParseScenario(f *testing.F) {
	for _, base := range exampleGridBases(f) {
		f.Add(base)
	}
	f.Add([]byte(materializeScenario))
	f.Add([]byte(`{"params": {"thcost": 1.1}, "workload": {"kind": "trace-obj", "path": "http://h/p", "options": {"cache_dir": "off"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted scenario fails Validate: %v", err)
		}
		js, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := ParseScenario(js)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", js, err)
		}
		if js2, _ := json.Marshal(again); !bytes.Equal(js, js2) {
			t.Fatalf("round trip changed the scenario:\n%s\nvs\n%s", js, js2)
		}
	})
}
