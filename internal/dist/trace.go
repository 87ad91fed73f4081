package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Span kinds recorded by simulation and real-mode traces.
const (
	SpanCompute  = 'c' // ERI computation
	SpanComm     = 'm' // communication (sim-mode aggregate)
	SpanSteal    = 's' // steal scan + stolen-block transfer
	SpanIdle     = '.' // waiting with no work reachable
	SpanPrefetch = 'p' // D-block prefetch (real mode)
	SpanFlush    = 'f' // F accumulate flush (real mode)
	SpanRPC      = 'r' // one netga RPC, including its retries (net backend)
)

// Span is one activity interval of a process.
type Span struct {
	Proc       int
	Start, End float64
	Kind       byte
}

// Trace collects activity spans from a run for post-hoc inspection (an
// observability aid; sim-mode rendering is approximate where the fluid
// work model revises earlier intervals, and real-mode span boundaries
// cost one clock read each).
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a span; zero-length and reversed spans are ignored.
func (t *Trace) Add(proc int, start, end float64, kind byte) {
	if t == nil || end <= start {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Proc: proc, Start: start, End: end, Kind: kind})
	t.mu.Unlock()
}

// AddSpans bulk-appends pre-built spans (a worker episode's buffer) under
// one lock acquisition; zero-length and reversed spans are dropped.
func (t *Trace) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		if s.End > s.Start {
			t.spans = append(t.spans, s)
		}
	}
	t.mu.Unlock()
}

// Spans returns the recorded spans sorted by (proc, start).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Makespan returns the largest span end time; 0 for an empty (or nil)
// trace.
func (t *Trace) Makespan() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var m float64
	for _, s := range t.spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// Timeline renders an ASCII Gantt chart: one row per process (at most
// maxRows, sampled evenly), width time buckets, with the latest-recorded
// span kind shown per bucket ('c' compute, 'm' communication, 'p'
// prefetch, 'f' flush, 's' steal, '.' idle). Empty or degenerate
// traces render a placeholder instead of dividing by zero.
func (t *Trace) Timeline(width, maxRows int) string {
	spans := t.Spans()
	if len(spans) == 0 || width <= 0 {
		return "(empty trace)\n"
	}
	makespan := t.Makespan()
	if makespan <= 0 {
		return "(empty trace)\n"
	}
	nproc := 0
	for _, s := range spans {
		if s.Proc+1 > nproc {
			nproc = s.Proc + 1
		}
	}
	rows := nproc
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}
	// Map proc -> display row (even sampling when compressed).
	rowOf := func(p int) int { return p * rows / nproc }

	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(string(rune(SpanIdle)), width))
	}
	for _, s := range spans {
		r := rowOf(s.Proc)
		b0 := int(s.Start / makespan * float64(width))
		b1 := int(s.End / makespan * float64(width))
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			grid[r][b] = s.Kind
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %d procs x %.4fs  (c=compute m=comm p=prefetch f=flush s=steal r=rpc .=idle)\n",
		nproc, makespan)
	for r := range grid {
		fmt.Fprintf(&sb, "%4d |%s|\n", r*nproc/rows, grid[r])
	}
	return sb.String()
}

// KindTotals sums span durations by kind.
func (t *Trace) KindTotals() map[byte]float64 {
	totals := map[byte]float64{}
	for _, s := range t.Spans() {
		totals[s.Kind] += s.End - s.Start
	}
	return totals
}
