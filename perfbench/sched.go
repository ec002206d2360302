package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// waitUntil blocks until t. A Go timer can wake up to a millisecond late
// (time.Sleep(50us) took ~0.85 ms on a 2-vCPU Xeon VM), which would swamp
// the microsecond latencies an open loop measures from each request's due
// time, so the wait sleeps in the kernel until shortly before t and spins,
// yielding the processor, for the rest.
func waitUntil(t time.Time) {
	const spin = 100 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the spin
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// hotCells cuts the vertex space into contiguous span-vertex id blocks (on
// the generated grids these are spatial blocks) and draws count of them.
func hotCells(numVertices, count, span int, rng *rand.Rand) [][]int32 {
	numCells := max(numVertices/span, 1)
	count = min(count, numCells)
	out := make([][]int32, count)
	for i, c := range rng.Perm(numCells)[:count] {
		lo, hi := c*span, min(c*span+span, numVertices)
		for v := lo; v < hi; v++ {
			out[i] = append(out[i], int32(v))
		}
	}
	return out
}
