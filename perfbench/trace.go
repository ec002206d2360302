package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one benchmark-side timed interval around a call into a layer.
// Spans of one request (or query, batch, route) share Req; Parent names the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Tag qualifies the span: the method of a query, the refresh reason of
	// a monitor step.
	Tag string `json:"tag,omitempty"`
	// Count carries an aggregated count for spans that stand for many
	// calls (the oracle calls of one query).
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, which is how the untraced passes run.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

// add records s and returns its id.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTime is one span name's aggregate: a layer's self time is its span's
// duration minus the part of that interval its child spans cover.
type selfTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"self_total_ms"`
	P50US   float64 `json:"self_p50_us"`
}

func (t *tracer) selfTimes() []selfTime {
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	perName := map[string]samples{}
	for _, s := range t.spans {
		var iv [][2]int64
		for _, ci := range children[s.ID] {
			c := t.spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, end := int64(0), int64(-1<<62)
		for _, x := range iv {
			lo := max(x[0], end)
			if x[1] > lo {
				covered += x[1] - lo
			}
			end = max(end, x[1])
		}
		perName[s.Name] = append(perName[s.Name], s.End-s.Start-covered)
	}
	var out []selfTime
	for name, v := range perName {
		total := int64(0)
		for _, x := range v {
			total += x
		}
		out = append(out, selfTime{Name: name, Spans: len(v), TotalMS: float64(total) / 1e6, P50US: us(median(v.sorted()))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans as JSON lines and the per-layer self times as one
// JSON document under dir, and returns the report lines describing them.
func (t *tracer) write(dir, stem string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(spanPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	self := t.selfTimes()
	b, err := json.MarshalIndent(self, "", "  ")
	if err != nil {
		return nil, err
	}
	selfPath := filepath.Join(dir, stem+".self.json")
	if err := os.WriteFile(selfPath, b, 0o644); err != nil {
		return nil, err
	}
	lines := []string{fmt.Sprintf("trace: %d spans -> %s; self times -> %s", len(t.spans), spanPath, selfPath)}
	for _, s := range self {
		lines = append(lines, fmt.Sprintf("trace self %-10s spans=%-7d total=%.1fms p50=%.2fus", s.Name, s.Spans, s.TotalMS, s.P50US))
	}
	return lines, nil
}
