// Example recorded proves the recorded-workload loop end to end:
//
//  1. Record the synthetic Setup-2 traces as a trace directory (chunked
//     CSVs plus manifest.json) — exactly what "tracegen -dir" writes.
//  2. Stream them back through the "trace-dir" workload kind and sweep a
//     small grid over them, locally and through a loopback HTTP worker
//     with the kind-aware preflight.
//  3. Byte-compare the per-cell aggregates against the same sweep run on
//     the in-memory synthetic workload at the same seed: the CSV encoding
//     is lossless, so recorded and synthetic runs are identical bit for
//     bit, local or remote.
//  4. Show the other half of the preflight contract: a grid naming a
//     workload kind no worker registered fails before any fan-out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/remote"
)

// workloadShape is the one place the demo fixes its trace shape, so the
// synthetic scenario, the recording, and the recorded scenario agree.
const (
	vms    = 16
	groups = 4
	hours  = 6
	seed   = 1
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recorded: ")

	dir, err := os.MkdirTemp("", "recorded-traces-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Record: generate the synthetic traces and write them as a trace
	// directory, 6 VM columns per CSV chunk ("tracegen -dir" in library
	// form).
	workload := dcsim.Workload{Kind: "datacenter", VMs: vms, Groups: groups, Hours: hours, Seed: seed}
	ds, err := dcsim.GenerateTraces(workload)
	if err != nil {
		log.Fatal(err)
	}
	if err := dcsim.WriteTraceDir(dir, ds, 6); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d VMs x %d samples to %s\n", len(ds.Fine), ds.Fine[0].Len(), dir)

	// 2. Two grids differing only in where the traces come from.
	axes := []sweep.Axis{
		{Field: "policy", Values: []any{"bfd", "pcp", "corr-aware"}},
		{Field: "rescale_every", Values: []any{0, 12}},
	}
	// Every policy runs under the Eqn-4 governor.
	base := dcsim.Scenario{Workload: workload, Governor: "eqn4", MaxServers: 8}
	syntheticGrid := sweep.Grid{Name: "synthetic", Base: base, Axes: axes}
	recordedBase := base
	recordedBase.Workload.Kind = "trace-dir"
	recordedBase.Workload.Path = dir
	recordedGrid := sweep.Grid{Name: "recorded", Base: recordedBase, Axes: axes}

	syntheticRes, err := sweep.Run(context.Background(), syntheticGrid, sweep.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	localRes, err := sweep.Run(context.Background(), recordedGrid, sweep.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(localRes.Table())

	// 3a. Recorded vs synthetic: the aggregates must match byte for byte
	// (the grids differ only in their workload descriptions, which the
	// comparison strips).
	if !bytes.Equal(cellBytes(syntheticRes), cellBytes(localRes)) {
		log.Fatal("recorded aggregates differ from the synthetic run they were recorded from")
	}
	fmt.Println("\nrecorded (trace-dir) == synthetic (in-memory): byte-identical aggregates")

	// 3b. The same recorded grid through a loopback HTTP worker, behind
	// the kind-aware preflight: still the same bytes.
	url, stop := startWorker()
	defer stop()
	exec, err := remote.NewExecutor([]string{url}, remote.WithInFlight(4))
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.PreflightGrid(context.Background(), recordedGrid); err != nil {
		log.Fatal(err)
	}
	remoteRes, err := sweep.Run(context.Background(), recordedGrid, sweep.Options{
		Workers:  exec.Capacity(),
		Executor: exec,
	})
	if err != nil {
		log.Fatal(err)
	}
	remoteJSON, err := remoteRes.JSON()
	if err != nil {
		log.Fatal(err)
	}
	localJSON, err := localRes.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(remoteJSON, localJSON) {
		log.Fatal("remote recorded sweep differs from the local one")
	}
	fmt.Printf("remote worker (kind-aware preflight) == local: byte-identical (%d bytes)\n", len(remoteJSON))

	// 4. A grid naming an unregistered workload kind dies in preflight,
	// naming the worker and the kind — before any cell is shipped.
	badGrid := recordedGrid
	badGrid.Base.Workload.Kind = "object-store"
	if err := exec.PreflightGrid(context.Background(), badGrid); err == nil {
		log.Fatal("preflight accepted a workload kind no worker registered")
	} else {
		fmt.Printf("unregistered kind rejected in preflight, as it must be:\n  %v\n", err)
	}
}

// cellBytes marshals a result's per-cell aggregates with the scenarios
// stripped: the synthetic and recorded grids agree on everything except
// where the traces come from, which is exactly the field under test.
func cellBytes(r *sweep.Result) []byte {
	cells := make([]sweep.CellResult, len(r.Cells))
	copy(cells, r.Cells)
	for i := range cells {
		cells[i].Scenario = dcsim.Scenario{}
	}
	data, err := json.Marshal(cells)
	if err != nil {
		log.Fatal(err)
	}
	return data
}

// startWorker serves the worker protocol on a loopback listener — what
// "dcsim worker -listen" does — and returns its base URL.
func startWorker() (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: &remote.Server{}}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }
}
