package sweep

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/objstore"
	"repro/pkg/dcsim"
)

// recordTinyBase records tinyBase's synthetic traces as a trace directory
// and returns the directory.
func recordTinyBase(t *testing.T) string {
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
func recordedGrid(kind, path string) Grid {
	g := tinyGrid()
	g.Base.Workload = dcsim.Workload{Kind: kind, VMs: 6, Groups: 2, Hours: 1, Path: path}
	// Recorded kinds are seed-invariant: replicas beyond 1 would rerun
	// identical traces and fail validation.
	g.Replicas = 1
	return g
}

// sweepCSV runs the grid and returns its CSV report bytes — the aggregate
// artifact the byte-identity contract is pinned on (the JSON report embeds
// each cell's scenario, whose kind/path legitimately differ).
func sweepCSV(t *testing.T, g Grid) []byte {
	t.Helper()
	return runCSV(t, g, nil)
}

// runCSV is sweepCSV through the given executor (nil: in-process).
func runCSV(t *testing.T, g Grid, exec Executor) []byte {
	t.Helper()
	res, err := Run(context.Background(), g, Options{Workers: 2, Executor: exec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObjstoreSweepByteIdentical pins the PR's acceptance contract: a
// sweep over the object-store kind produces a byte-identical CSV report to
// the same sweep over the recording on local disk — cold cache, warm
// cache, and under injected transient faults.
func TestObjstoreSweepByteIdentical(t *testing.T) {
	dir := recordTinyBase(t)
	ds := &objstore.DirServer{Dir: dir}
	srv := httptest.NewServer(ds)
	defer srv.Close()

	want := sweepCSV(t, recordedGrid("trace-dir", dir))

	cacheDir := filepath.Join(t.TempDir(), "cache")
	objGrid := recordedGrid("trace-obj", srv.URL)
	objGrid.Base.Workload.SetOption("cache_dir", cacheDir)

	before := dcsim.WorkloadFetchStats()
	cold := sweepCSV(t, objGrid)
	if !bytes.Equal(cold, want) {
		t.Fatalf("cold-cache object-store sweep CSV differs from trace-dir sweep:\n%s\nvs\n%s", cold, want)
	}
	afterCold := dcsim.WorkloadFetchStats()
	if afterCold.ChunkFetches == before.ChunkFetches {
		t.Fatal("cold sweep fetched nothing from the object store")
	}

	warm := sweepCSV(t, objGrid)
	if !bytes.Equal(warm, want) {
		t.Fatalf("warm-cache object-store sweep CSV differs from trace-dir sweep:\n%s\nvs\n%s", warm, want)
	}
	afterWarm := dcsim.WorkloadFetchStats()
	if d := afterWarm.ChunkFetches - afterCold.ChunkFetches; d != 0 {
		t.Fatalf("warm sweep fetched %d objects from the store, want 0 (cache-served)", d)
	}
	if afterWarm.CacheHits == afterCold.CacheHits {
		t.Fatal("warm sweep recorded no cache hits")
	}

	// Injected transient faults: first requests answer 503, the bounded
	// retry heals them, and the aggregates still match byte for byte. A
	// fresh cache directory forces real refetching through the faults.
	ds.FailFirst(3)
	faulted := recordedGrid("trace-obj", srv.URL)
	faulted.Base.Workload.SetOption("cache_dir", filepath.Join(t.TempDir(), "cache2"))
	got := sweepCSV(t, faulted)
	if !bytes.Equal(got, want) {
		t.Fatalf("faulted object-store sweep CSV differs from trace-dir sweep:\n%s\nvs\n%s", got, want)
	}
	if dcsim.WorkloadFetchStats().FetchRetries == afterWarm.FetchRetries {
		t.Fatal("faulted sweep healed without recording retries")
	}
}

// TestObjstoreGridValidation pins the preflight guard rails for the new
// kind: workload.opt axes reach the backend's unread-key rejection, and
// seed replicas over the seed-invariant recorded kind are rejected.
func TestObjstoreGridValidation(t *testing.T) {
	t.Run("unread option axis", func(t *testing.T) {
		g := recordedGrid("trace-obj", "http://store.example/run")
		g.Axes = append(g.Axes, Axis{Field: "workload.opt:cache_gb", Values: []any{"1"}})
		cells, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		// The axis applies mechanically; the backend rejects the unread
		// key at workload check time, mirroring unread scenario params.
		err = dcsim.CheckWorkload(cells[0].Scenario.Workload)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("cache_gb")) {
			t.Fatalf("unread option key not rejected: %v", err)
		}
	})
	t.Run("replicas over seed-invariant kind", func(t *testing.T) {
		g := recordedGrid("trace-obj", "http://store.example/run")
		g.Replicas = 3
		if err := g.Validate(); err == nil {
			t.Fatal("replicas 3 over the seed-invariant trace-obj kind must fail validation")
		}
	})
}
