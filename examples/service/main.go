// Example service demonstrates simulation-as-a-service end to end inside
// one process: it serves the job API on a loopback listener (exactly what
// "dcsim serve -listen" runs), submits a sweep grid over HTTP, follows
// the job's Server-Sent Events stream to completion, fetches the result
// document, and verifies it is byte-identical to running the same grid
// in-process — then scrapes /metrics to show the exporter. Against a real
// deployment the only difference is the URL.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"repro/pkg/dcsim"
	"repro/pkg/dcsim/service"
	"repro/pkg/dcsim/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("service: ")

	// The service half: a Manager with two job slots over an HTTP front
	// end, on a loopback listener.
	mgr := service.NewManager(service.Config{Concurrency: 2})
	defer mgr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: service.NewServer(mgr)}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("service:", base)

	grid := sweep.Grid{
		Name: "service-demo",
		// Every policy runs under the Eqn-4 governor.
		Base: dcsim.Scenario{
			Workload:   dcsim.Workload{VMs: 16, Groups: 4, Hours: 6},
			Governor:   "eqn4",
			MaxServers: 8,
		},
		Axes: []sweep.Axis{
			{Field: "policy", Values: []any{"bfd", "corr-aware"}},
			{Field: "rescale_every", Values: []any{0, 12}},
		},
		Replicas: 2,
	}

	// Submit the grid as a client would: POST the JSON document.
	body, err := json.Marshal(grid)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	fmt.Printf("submitted %s: %d cells, %d runs\n", st.ID, st.CellsTotal, st.RunsTotal)

	// Follow the SSE stream to completion: a leading state snapshot,
	// coalesced progress events, and a final done/failed/cancelled event.
	events, err := http.Get(base + "/jobs/" + st.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer events.Body.Close()
	var evType string
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch evType {
			case "progress":
				var p service.ProgressEvent
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %s: run %d/%d (cell %d/%d)\n",
					evType, p.RunsDone, p.RunsTotal, p.CellsDone, p.CellsTotal)
			default:
				var s service.Status
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %s: job %s\n", evType, s.State)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// Fetch the result document — the exact bytes "dcsim sweep" writes.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		log.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("GET result: %d, %v", resp.StatusCode, err)
	}

	// The same grid in-process: the served document must be the same
	// bytes — the service moves work behind HTTP, never bytes.
	localRes, err := sweep.Run(context.Background(), grid, sweep.Options{})
	if err != nil {
		log.Fatal(err)
	}
	localJSON, err := localRes.JSON()
	if err != nil {
		log.Fatal(err)
	}
	localJSON = append(localJSON, '\n')
	if !bytes.Equal(served, localJSON) {
		log.Fatal("served and local result documents differ — determinism broken")
	}
	fmt.Printf("\nserved and local result documents: byte-identical (%d bytes)\n", len(served))

	// Scrape the exporter: job and cell counters in OpenMetrics text.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("\nmetrics (job/cell counters):")
	msc := bufio.NewScanner(resp.Body)
	for msc.Scan() {
		line := msc.Text()
		if strings.HasPrefix(line, "dcsim_jobs_") || strings.HasPrefix(line, "dcsim_cells_") ||
			strings.HasPrefix(line, "dcsim_runs_total") {
			fmt.Println("  " + line)
		}
	}
	if err := msc.Err(); err != nil {
		log.Fatal(err)
	}
}
