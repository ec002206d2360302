package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples holds raw nanosecond latencies in a slice the caller preallocates;
// percentiles come from sorting a copy. One samples value belongs to one
// goroutine, so recording takes no lock.
type samples []int64

func newSamples(capacity int) samples { return make(samples, 0, capacity) }

func (s samples) sorted() []int64 {
	out := append([]int64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct returns the nearest-rank p-quantile (0 < p <= 1) of sorted values.
func pct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of sorted values.
func median(sorted []int64) int64 { return pct(sorted, 0.5) }

// tailLevels are the percentiles a timing's tail is reported at: the
// highest one with at least ten samples beyond it is printed with the
// median and the sample count.
var tailLevels = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// summary formats a timing as "p50=… p<tail>=… n=…" in microseconds.
func summary(s samples) string {
	sorted := s.sorted()
	n := len(sorted)
	tail := 0.5
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= 10 {
			tail = p
		}
	}
	return fmt.Sprintf("p50=%.2fus p%s=%.2fus n=%d", us(median(sorted)),
		strconv.FormatFloat(tail*100, 'f', -1, 64), us(pct(sorted, tail)), n)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.5*float64(len(s))))-1]
}

// geomean of positive values; zero when there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rssMB returns the resident set size after a full collection and a return
// of freed memory to the OS. Touched pages of a mapped snapshot count.
func rssMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// clockCost is the measured cost of one time.Now/time.Since pair; the
// oracle wrapper subtracts it from each call it times.
func clockCost() time.Duration {
	const n = 200000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return time.Since(start) / n
}

// medianSeconds returns the median of xs in seconds.
func medianSeconds(xs []time.Duration) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = x.Seconds()
	}
	return medianFloat(f)
}
