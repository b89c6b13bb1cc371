package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// materializeGrid is a grid written for the retired whole-Dataset ingest
// switch; it must now be rejected as an unknown field
// (TestParseGridRejectsUnknownFields).
const materializeGrid = `{"name": "m", "base": {"workload": {"vms": 8, "groups": 2, "hours": 2}, "max_servers": 4, "materialize": true}, "axes": [{"field": "policy", "values": ["bfd"]}]}`

// wideGrid returns a grid of n two-value param axes: 2^n cells.
func wideGrid(n int) []byte {
	axes := make([]string, n)
	for i := range axes {
		axes[i] = fmt.Sprintf(`{"field": "param:p%d", "values": [1, 2]}`, i)
	}
	return []byte(`{"base": {}, "axes": [` + strings.Join(axes, ", ") + `]}`)
}

// TestGridBoundsRuns pins the run-count bound: a tiny grid body whose
// axes multiply past maxRuns (here past the int range), or whose replica
// count does, is rejected instead of overflowing the count or allocating
// it.
func TestGridBoundsRuns(t *testing.T) {
	for _, n := range []int{17, 40, 63, 64} {
		g, err := DecodeGrid(wideGrid(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Cells(); err == nil || !strings.Contains(err.Error(), "more than") {
			t.Fatalf("%d two-value axes: Cells() = %v, want the cell-count bound", n, err)
		}
		if err := g.Validate(); err == nil {
			t.Fatalf("%d two-value axes: Validate passed", n)
		}
	}
	g := tinyGrid() // 4 cells
	g.Replicas = maxRuns/4 + 1
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("%d replicas: Validate() = %v, want the run-count bound", g.Replicas, err)
	}
}

// FuzzDecodeGrid feeds arbitrary bytes to the grid decoder. It must never
// panic, and an accepted grid must survive a marshal/decode round trip
// unchanged. Grids that read no path are also validated — recorded kinds
// would touch the filesystem — which must not panic, and every replica
// scenario of a grid that passes must pass Scenario.Validate.
func FuzzDecodeGrid(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "grids", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("example grids: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(materializeGrid))
	f.Add(wideGrid(63))
	f.Add([]byte(`{"base": {}, "axes": [{"field": "policy", "values": ["bfd"]}], "replicas": 2000000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGrid(data)
		if err != nil {
			return
		}
		js, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not marshal: %v", err)
		}
		again, err := DecodeGrid(js)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", js, err)
		}
		if js2, _ := json.Marshal(again); !bytes.Equal(js, js2) {
			t.Fatalf("round trip changed the grid:\n%s\nvs\n%s", js, js2)
		}
		cells, err := g.Cells()
		if err != nil {
			return
		}
		for _, c := range cells {
			if c.Scenario.Workload.Path != "" {
				return
			}
		}
		if g.Validate() != nil {
			return
		}
		for _, c := range cells {
			for r := 0; r < g.Replicas; r++ {
				if err := c.Replica(r, g.SeedStride).Validate(); err != nil {
					t.Fatalf("cell %d replica %d of an accepted grid fails Validate: %v", c.Index, r, err)
				}
			}
		}
	})
}
