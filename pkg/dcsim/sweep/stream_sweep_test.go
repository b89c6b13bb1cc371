package sweep

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/objstore"
	"repro/pkg/dcsim"
	"repro/pkg/dcsim/model"
)

// materializedExecutor is the reference the streaming ingest is pinned
// against: each cell-replica's whole Dataset is generated up front and
// run through dcsim.RunVMs instead of streamed through dcsim.Run.
type materializedExecutor struct{}

func (materializedExecutor) ExecuteCell(ctx context.Context, run CellRun) (*dcsim.Result, error) {
	sc := run.Scenario()
	ds, err := dcsim.GenerateTraces(sc.Workload)
	if err != nil {
		return nil, err
	}
	return dcsim.RunVMs(ctx, model.VMsFromSeries(ds.Names, ds.Fine), sc)
}

// TestStreamMatchesMaterialized pins the streaming data path's core
// contract on every built-in kind: a sweep over the streamed ingest
// produces a byte-identical CSV report to the same sweep run over each
// cell's materialized Dataset.
func TestStreamMatchesMaterialized(t *testing.T) {
	check := func(t *testing.T, g Grid, streamed []byte) {
		t.Helper()
		if want := runCSV(t, g, materializedExecutor{}); !bytes.Equal(streamed, want) {
			t.Fatalf("streamed sweep CSV differs from materialized:\n%s\nvs\n%s", streamed, want)
		}
	}
	t.Run("synthetic", func(t *testing.T) {
		g := tinyGrid()
		check(t, g, sweepCSV(t, g))
	})
	t.Run("uncorrelated", func(t *testing.T) {
		g := tinyGrid()
		g.Base.Workload.Kind = "uncorrelated"
		check(t, g, sweepCSV(t, g))
	})
	t.Run("trace-dir", func(t *testing.T) {
		g := recordedGrid("trace-dir", recordTinyBase(t))
		check(t, g, sweepCSV(t, g))
	})
	t.Run("trace-obj", func(t *testing.T) {
		dir := recordTinyBase(t)
		srv := httptest.NewServer(&objstore.DirServer{Dir: dir})
		defer srv.Close()
		g := recordedGrid("trace-obj", srv.URL)
		g.Base.Workload.SetOption("cache_dir", filepath.Join(t.TempDir(), "cache"))

		before := dcsim.WorkloadFetchStats()
		streamed := sweepCSV(t, g)
		if dcsim.WorkloadFetchStats().ChunkFetches == before.ChunkFetches {
			t.Fatal("streamed object-store sweep fetched nothing from the store")
		}
		check(t, g, streamed)
	})
}
