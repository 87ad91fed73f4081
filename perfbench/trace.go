package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/linalg"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call. Spans of one operation (a solve or a
// job) share Op; Parent names the enclosing span (0 = none).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer's epoch
	End    float64 `json:"end_s"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// tracer keeps spans in memory for the whole run and writes them out at
// the end. A nil *tracer records nothing, so untraced runs share the
// code path at the cost of one branch per call.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name a parent that is
// recorded after them (0 on a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a span under id (0 = allocate one) and returns the id
// (0 on a nil tracer).
func (t *tracer) add(id int64, name string, op, parent int64, start, end time.Time, bytes int64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
		Bytes: bytes,
	})
	return id
}

// named returns the recorded spans called name, optionally restricted to
// the operations keep accepts.
func (t *tracer) named(name string, keep func(op int64) bool) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span names of the timing backend's one-sided operations.
const (
	spanGet      = "dist.Get"
	spanAcc      = "dist.Acc"
	spanGetRetry = "dist.GetRetry"
	spanAccRetry = "dist.AccFencedRetry"
)

var backendOps = []string{spanGet, spanAcc, spanGetRetry, spanAccRetry}

// timedBackend wraps a dist.Backend and records one span per one-sided
// operation, carrying the patch bytes it moved. It also forwards the
// error-returning bulk operations the network client offers, so wrapping
// does not change how core.Build loads D and gathers F.
type timedBackend struct {
	dist.Backend
	t      *tracer
	op     int64
	parent int64
}

func patchBytes(r0, r1, c0, c1 int) int64 { return int64((r1 - r0) * (c1 - c0) * 8) }

func (b *timedBackend) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	s := time.Now()
	b.Backend.Get(proc, r0, r1, c0, c1, dst, ld)
	b.t.add(0, spanGet, b.op, b.parent, s, time.Now(), patchBytes(r0, r1, c0, c1))
}

func (b *timedBackend) Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) {
	s := time.Now()
	b.Backend.Acc(proc, r0, r1, c0, c1, src, ld, alpha)
	b.t.add(0, spanAcc, b.op, b.parent, s, time.Now(), patchBytes(r0, r1, c0, c1))
}

func (b *timedBackend) GetRetry(ctx context.Context, attempts int, backoff time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	s := time.Now()
	n, err := b.Backend.GetRetry(ctx, attempts, backoff, proc, r0, r1, c0, c1, dst, ld)
	b.t.add(0, spanGetRetry, b.op, b.parent, s, time.Now(), patchBytes(r0, r1, c0, c1))
	return n, err
}

func (b *timedBackend) AccFencedRetry(ctx context.Context, backoff time.Duration, proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	s := time.Now()
	n, err := b.Backend.AccFencedRetry(ctx, backoff, proc, epoch, r0, r1, c0, c1, src, ld, alpha)
	b.t.add(0, spanAccRetry, b.op, b.parent, s, time.Now(), patchBytes(r0, r1, c0, c1))
	return n, err
}

func (b *timedBackend) LoadMatrixErr(m *linalg.Matrix) error {
	if l, ok := b.Backend.(interface{ LoadMatrixErr(*linalg.Matrix) error }); ok {
		return l.LoadMatrixErr(m)
	}
	b.Backend.LoadMatrix(m)
	return nil
}

func (b *timedBackend) ToMatrixErr() (*linalg.Matrix, error) {
	if g, ok := b.Backend.(interface {
		ToMatrixErr() (*linalg.Matrix, error)
	}); ok {
		return g.ToMatrixErr()
	}
	return b.Backend.ToMatrix(), nil
}

// backendFactory is the shape of core.Options.Backend and
// scf.Options.FockBackend.
type backendFactory = func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error)

// timeBackends wraps a backend factory so both arrays it returns are
// timed, and calls onEnd when the build that requested them finishes
// (core.Build runs the cleanup as its last step).
func timeBackends(inner backendFactory, t *tracer, op, parent int64, onEnd func()) backendFactory {
	return func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
		d, f, cleanup, err := inner(grid, stats)
		if err != nil {
			return nil, nil, nil, err
		}
		return &timedBackend{Backend: d, t: t, op: op, parent: parent},
			&timedBackend{Backend: f, t: t, op: op, parent: parent},
			func() {
				if cleanup != nil {
					cleanup()
				}
				if onEnd != nil {
					onEnd()
				}
			}, nil
	}
}
