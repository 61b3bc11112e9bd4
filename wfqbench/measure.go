package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// clock reads the host's monotonic clock relative to its creation. It
// is the harness's only source of wall-clock time: host time is what
// the benchmark measures, next to the model's fabric cycles.
type clock struct{ t0 time.Time }

func newClock() clock { return clock{t0: time.Now()} } //wfqlint:ignore determinism benchmark harness measures host time, not simulation state

// now returns nanoseconds since the clock was created.
func (c clock) now() int64 { return int64(time.Since(c.t0)) } //wfqlint:ignore determinism benchmark harness measures host time, not simulation state

func (c clock) seconds() float64 { return float64(c.now()) / 1e9 }

// windows splits a measured phase into equal sub-windows. Each window
// keeps its own latency samples and counts, and every reported rate or
// percentile is the median over the windows, so one noisy second on a
// shared host moves the result by at most one rank.
type windows struct {
	start, width int64 // ns on the run clock
	n            int
	lat          series  // per-window latency samples, ns
	ops          []int64 // client operations completed per window
	served       []int64 // items served (engine receipts, timer fires)
}

func newWindows(start int64, d time.Duration, n int) *windows {
	return &windows{
		start:  start,
		width:  int64(d) / int64(n),
		n:      n,
		lat:    newSeries(n),
		ops:    make([]int64, n),
		served: make([]int64, n),
	}
}

// end is the run-clock time the last window closes.
func (w *windows) end() int64 { return w.start + w.width*int64(w.n) }

// index returns the window holding run-clock time t, or -1 outside the
// measured phase.
func (w *windows) index(t int64) int {
	if t < w.start {
		return -1
	}
	i := int((t - w.start) / w.width)
	if i >= w.n {
		return -1
	}
	return i
}

// rate returns the median over windows of count per second.
func (w *windows) rate(counts []int64) float64 {
	return median(w.perSecond(counts))
}

func (w *windows) perSecond(counts []int64) []float64 {
	per := make([]float64, len(counts))
	for i, c := range counts {
		per[i] = float64(c) / (float64(w.width) / 1e9)
	}
	return per
}

// series keeps one slice of samples per window.
type series [][]int32

func newSeries(n int) series { return make(series, n) }

// add appends v to window i. A window's buffer is sized on first use
// from the previous window, so the load loop rarely stops to grow one.
func (s series) add(i int, v int32) {
	if s[i] == nil {
		hint := 1 << 18
		if i > 0 && len(s[i-1]) > hint {
			hint = len(s[i-1]) + len(s[i-1])/4
		}
		s[i] = make([]int32, 0, hint)
	}
	s[i] = append(s[i], v)
}

// perWindow sorts each window's samples and returns its q-quantiles,
// scaled by 1/div.
func (s series) perWindow(q, div float64) []float64 {
	per := make([]float64, 0, len(s))
	for _, w := range s {
		if len(w) > 0 {
			slices.Sort(w)
			per = append(per, quantile(w, q)/div)
		}
	}
	return per
}

// quantile returns the median over windows of each window's
// q-quantile, scaled by 1/div.
func (s series) quantile(q, div float64) float64 { return median(s.perWindow(q, div)) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// clampNs stores a duration as int32 ns, saturating at ~2.1 s.
func clampNs(d int64) int32 {
	if d > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(d)
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// span is one traced interval at a layer boundary. Spans of one packet
// or timer op share ID; Parent indexes the enclosing span in the
// tracer's list (-1 for a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of every every-th packet or op in memory, up
// to a fixed cap, and writes them out when the run ends. Per-layer
// percentiles come from the full per-call samples the workloads keep;
// the spans are the inspectable record of where one item's time went.
type tracer struct {
	spans []span
	every int64
}

const maxSpans = 1 << 16

func newTracer(every int64) *tracer {
	return &tracer{spans: make([]span, 0, maxSpans), every: every}
}

// sampled reports whether item id's spans (at most three) are
// recorded. A nil tracer records nothing.
func (t *tracer) sampled(id int64) bool {
	return t != nil && id%t.every == 0 && len(t.spans)+3 <= cap(t.spans)
}

// add appends a span and returns its index for children to reference.
func (t *tracer) add(id int64, name string, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start, End: end})
	return int32(len(t.spans) - 1)
}

// write stores the spans as JSON lines, one span per line, with its
// index as "idx" so Parent references resolve.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		line := struct {
			Idx int `json:"idx"`
			span
		}{i, s}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
