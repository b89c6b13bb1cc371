package remote

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/objstore"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
	"repro/pkg/dcsim/sweep"
)

// resultCSV marshals the aggregate the streamed-vs-materialized contract
// is pinned on.
func resultCSV(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// materializedExecutor is the in-process reference the streamed remote
// runs are pinned against: each cell-replica's whole Dataset is generated
// up front and run through dcsim.RunVMs instead of streamed through
// dcsim.Run.
type materializedExecutor struct{}

func (materializedExecutor) ExecuteCell(ctx context.Context, run sweep.CellRun) (*dcsim.Result, error) {
	sc := run.Scenario()
	ds, err := dcsim.GenerateTraces(sc.Workload)
	if err != nil {
		return nil, err
	}
	return dcsim.RunVMs(ctx, model.VMsFromSeries(ds.Names, ds.Fine), sc)
}

// materializedCSV runs the grid locally over materialized Datasets and
// returns its CSV report.
func materializedCSV(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	res, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 1, Executor: materializedExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	return resultCSV(t, res)
}

// remoteCSV runs the grid across two loopback workers, each streaming its
// cells' workloads, and returns its CSV report.
func remoteCSV(t *testing.T, g sweep.Grid) []byte {
	t.Helper()
	exec, err := NewExecutor(cluster(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := remoteRun(t, g, exec)
	if err != nil {
		t.Fatal(err)
	}
	return resultCSV(t, res)
}

// recordTiny records a 6-VM synthetic workload as a trace directory and
// returns the directory. (The httptest workers run in-process, so the
// recording's path resolves for them.)
func recordTiny(t *testing.T) string {
	t.Helper()
	ds, err := dcsim.GenerateTraces(dcsim.Workload{Kind: "datacenter", VMs: 6, Groups: 2, Hours: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dcsim.WriteTraceDir(dir, ds, 2); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recordedGrid is tinyGrid over a recorded workload of the given kind.
func recordedGrid(kind, path string) sweep.Grid {
	g := tinyGrid()
	g.Base.Workload = dcsim.Workload{Kind: kind, VMs: 6, Groups: 2, Hours: 1, Path: path}
	g.Replicas = 1 // recorded kinds are seed-invariant
	return g
}

// TestStreamedRemoteMatchesMaterialized pins the streaming data path
// across the wire: remote workers streaming each cell's workload
// reproduce the local run over the materialized Dataset byte for byte,
// on every built-in kind.
func TestStreamedRemoteMatchesMaterialized(t *testing.T) {
	check := func(t *testing.T, g sweep.Grid) {
		t.Helper()
		want := materializedCSV(t, g)
		if got := remoteCSV(t, g); !bytes.Equal(got, want) {
			t.Fatalf("remote streamed CSV differs from local materialized:\n%s\nvs\n%s", got, want)
		}
	}
	t.Run("synthetic", func(t *testing.T) {
		check(t, tinyGrid())
	})
	t.Run("uncorrelated", func(t *testing.T) {
		g := tinyGrid()
		g.Base.Workload.Kind = "uncorrelated"
		check(t, g)
	})
	t.Run("trace-obj", func(t *testing.T) {
		srv := httptest.NewServer(&objstore.DirServer{Dir: recordTiny(t)})
		defer srv.Close()
		g := recordedGrid("trace-obj", srv.URL)
		g.Base.Workload.SetOption("cache_dir", filepath.Join(t.TempDir(), "cache"))
		check(t, g)
	})
}

// TestStreamedRemoteTraceDir repeats the wire contract over a recorded
// trace directory: remote workers streaming it chunk by chunk reproduce
// the local materialized run byte for byte.
func TestStreamedRemoteTraceDir(t *testing.T) {
	g := recordedGrid("trace-dir", recordTiny(t))
	want := materializedCSV(t, g)
	if got := remoteCSV(t, g); !bytes.Equal(got, want) {
		t.Fatalf("remote streamed trace-dir CSV differs from local materialized:\n%s\nvs\n%s", got, want)
	}
}
