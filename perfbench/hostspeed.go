package main

import (
	"math/rand"
	"slices"
	"time"
)

// The shared host this benchmark is made for speeds up and slows down by a
// fifth or more over minutes, and the process's CPU time follows its wall
// time, so the drift is the processor running slower, not the process
// waiting. A fixed reference kernel, timed between units of work, slows
// down with it. The end-to-end times are reported scaled by
// refKernelSeconds over the kernel's median time in the same run: the time
// the work would have taken on a host where the kernel takes
// refKernelSeconds. The kernel uses no code of the repository, so a change
// to the program moves the scaled times as much as the raw ones.

// refKernelSeconds is the kernel's median time on the reference host, a
// 2-vCPU VM; scaled times are times at that host's speed.
const refKernelSeconds = 0.075

// hostSpeed holds the kernel's fixed inputs and collects its times over
// one benchmark run. The inputs take about 10 MiB of heap, so a run makes
// one only after its memory pass.
type hostSpeed struct {
	sorted, stream, scratch, pairs []float64
	times                          []float64
	sink                           float64
}

func newHostSpeed() *hostSpeed {
	r := rand.New(rand.NewSource(1))
	h := &hostSpeed{sorted: make([]float64, 100_000), stream: make([]float64, 1<<20)}
	for i := range h.sorted {
		h.sorted[i] = r.Float64()
	}
	for i := range h.stream {
		h.stream[i] = r.Float64()
	}
	h.scratch = make([]float64, len(h.sorted))
	h.pairs = make([]float64, pairVMs*(pairVMs-1)/2)
	return h
}

// pairVMs is the vector length of the kernel's pairwise part.
const pairVMs = 400

// sample times the kernel n times. The kernel is a fixed mix of the kinds
// of work the simulator does, and allocates nothing: it sorts an array,
// streams arithmetic over a larger one, and folds vectors into a running
// maximum over every pair of their elements, held as an upper triangle.
func (h *hostSpeed) sample(n int) {
	for range n {
		start := time.Now()
		copy(h.scratch, h.sorted)
		slices.Sort(h.scratch)
		acc, peak := h.scratch[len(h.scratch)/2], 0.0
		for range 3 {
			for i := 1; i < len(h.stream); i++ {
				v := h.stream[i]*0.75 + h.stream[i-1]*0.25
				peak = max(peak, v)
				acc += v / (1 + v)
			}
		}
		for s := range 400 {
			u := h.stream[s*pairVMs : (s+1)*pairVMs]
			k := 0
			for i, ui := range u {
				row := h.pairs[k : k+pairVMs-1-i]
				for j, uj := range u[i+1:] {
					row[j] = max(row[j], ui+uj)
				}
				k += len(row)
			}
		}
		h.sink += acc + peak + h.pairs[len(h.pairs)/2]
		h.times = append(h.times, time.Since(start).Seconds())
	}
}

// scale is the factor that turns a time measured in this run into one at
// the reference host's speed: refKernelSeconds over the kernel's median.
func (h *hostSpeed) scale() float64 {
	return refKernelSeconds / median(h.times)
}
