package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
)

// materializeRun is a /run body whose scenario carries the retired
// whole-Dataset ingest switch; workers must now reject it as an unknown
// field.
const materializeRun = `{"cell": {"index": 0, "scenario": {"workload": {"vms": 6, "groups": 2, "hours": 1}, "max_servers": 5, "materialize": true}}, "replica": 0, "seed_stride": 1}`

// TestRunRejectsMaterialize pins the worker side of the field's
// retirement: a CellRun still carrying it gets the typed bad_request
// envelope instead of a run.
func TestRunRejectsMaterialize(t *testing.T) {
	srv := httptest.NewServer(&Server{})
	defer srv.Close()
	resp, err := http.Post(srv.URL+runPath, "application/json", strings.NewReader(materializeRun))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env runResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest ||
		!strings.Contains(env.Error.Message, `unknown field "materialize"`) {
		t.Fatalf("materialize run: status %d, envelope %+v", resp.StatusCode, env.Error)
	}
}

// FuzzDecodeCellRun feeds arbitrary bytes to the worker's /run decoder.
// It must never panic, and an accepted CellRun must survive a
// marshal/decode round trip unchanged. For runs that read no path (the
// check of a recorded kind touches the filesystem), a run the worker
// would admit must have a scenario that passes Validate.
func FuzzDecodeCellRun(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "..", "examples", "grids", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("example grids: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		g, err := sweep.DecodeGrid(data)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		cells, err := g.Cells()
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		for _, c := range cells {
			js, err := json.Marshal(sweep.CellRun{Cell: c, SeedStride: g.SeedStride})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(js)
		}
	}
	f.Add([]byte(materializeRun))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := decodeCellRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		js, err := json.Marshal(run)
		if err != nil {
			t.Fatalf("accepted run does not marshal: %v", err)
		}
		again, err := decodeCellRun(bytes.NewReader(js))
		if err != nil {
			t.Fatalf("re-decode of %s: %v", js, err)
		}
		if js2, _ := json.Marshal(again); !bytes.Equal(js, js2) {
			t.Fatalf("round trip changed the run:\n%s\nvs\n%s", js, js2)
		}
		sc := run.Scenario()
		if sc.Workload.Path != "" || dcsim.CheckScenario(sc) != nil {
			return
		}
		if err := sc.Normalized().Validate(); err != nil {
			t.Fatalf("admitted run's scenario fails Validate: %v", err)
		}
	})
}
