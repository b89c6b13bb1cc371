// Example distributed demonstrates the remote sweep executor end to end
// inside one process: it starts three HTTP workers on loopback listeners
// (each one exactly what "dcsim worker -listen" serves), fans a grid out
// to them — mixed with two in-process slots — and verifies the aggregate
// bytes are identical to a purely local run of the same grid. Across real
// machines the only difference is the URLs.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/sweep"
	"repro/pkg/dcsim/sweep/remote"
)

// startWorker serves the worker protocol on a loopback listener and
// returns its base URL.
func startWorker() (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: &remote.Server{}}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("distributed: ")

	var urls []string
	for i := 0; i < 3; i++ {
		url, stop, err := startWorker()
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		urls = append(urls, url)
	}
	fmt.Println("workers:", urls)

	grid := sweep.Grid{
		Name: "distributed-demo",
		// Every policy runs under the Eqn-4 governor.
		Base: dcsim.Scenario{
			Workload:   dcsim.Workload{VMs: 16, Groups: 4, Hours: 6},
			Governor:   "eqn4",
			MaxServers: 8,
		},
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "pcp", "corr-aware"}},
			{Field: "rescale_every", Values: []any{0, 12}},
		},
		Replicas: 2,
	}

	// Remote: three workers, two requests in flight each, plus two
	// in-process slots (the mixed mode "dcsim sweep -remote ... -local 2"
	// wires up).
	exec, err := remote.NewExecutor(urls, remote.WithInFlight(2), remote.WithLocalSlots(2))
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Preflight(context.Background()); err != nil {
		log.Fatal(err)
	}
	remoteRes, err := sweep.Run(context.Background(), grid, sweep.Options{
		Workers:  exec.Capacity(),
		Executor: exec,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(remoteRes.Table())

	// The same grid, purely in-process: the aggregate must be the same
	// bytes — the collector folds replicas in canonical order no matter
	// where each run executed.
	localRes, err := sweep.Run(context.Background(), grid, sweep.Options{Workers: 4})
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
		log.Fatal("remote and local aggregates differ — determinism broken")
	}
	fmt.Printf("\nremote (3 workers + 2 local slots) and local aggregates: "+
		"byte-identical (%d bytes)\n", len(remoteJSON))
}
