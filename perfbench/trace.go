package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/laces-project/laces/internal/obs"
)

// tracer opens the spans a traced run wraps around its calls into each
// layer. The spans go to an obs trace log, which exports them as one
// Chrome trace_event file; the per-layer metrics are computed from the
// same log, so each figure traces to exported spans. A nil tracer opens
// nil spans, which record nothing.
type tracer struct {
	reg *obs.Registry
}

func newTracer() *tracer {
	reg := obs.New()
	reg.SetTraceComponent("perfbench")
	return &tracer{reg: reg}
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string) *obs.ActiveSpan {
	if t == nil {
		return nil
	}
	return t.reg.StartTrace(name)
}

// durations returns the duration of every ended span with this name, in
// seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.reg.TraceSpans() {
		if s.Name == name {
			out = append(out, s.Seconds)
		}
	}
	return out
}

// total sums the durations of every span with this name, in seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// coverage is the share of [from, to] that spans with the given names
// cover, overlapping spans counted once.
func (t *tracer) coverage(from, to time.Time, names ...string) float64 {
	type interval struct{ start, end time.Time }
	var ivs []interval
	for _, s := range t.reg.TraceSpans() {
		if !slices.Contains(names, s.Name) {
			continue
		}
		iv := interval{s.Start, s.Start.Add(time.Duration(s.Seconds * float64(time.Second)))}
		if iv.start.Before(from) {
			iv.start = from
		}
		if iv.end.After(to) {
			iv.end = to
		}
		if iv.end.After(iv.start) {
			ivs = append(ivs, iv)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var covered time.Duration
	var cur interval
	for i, iv := range ivs {
		if i == 0 || iv.start.After(cur.end) {
			covered += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	covered += cur.end.Sub(cur.start)
	return covered.Seconds() / to.Sub(from).Seconds()
}

// write exports every span as Chrome trace_event JSON. A trace log that
// filled up and dropped spans fails the run: the per-layer metrics would
// be missing those spans.
func (t *tracer) write(path string) error {
	if dropped := t.reg.TraceSpansDropped(); dropped > 0 {
		return fmt.Errorf("trace log full: %d spans dropped", dropped)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.reg.ExportTrace().WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
