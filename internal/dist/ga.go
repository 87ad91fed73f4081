package dist

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"gtfock/internal/linalg"
)

// GlobalArray is a shared-memory stand-in for a Global Arrays 2D
// block-distributed array: goroutine "processes" address it with one-sided
// Get/Put/Acc operations on arbitrary rectangular patches, and every
// operation is accounted against the calling process exactly as the paper
// instruments GA (call counts and transfer volumes, Tables VI/VII; volumes
// include local transfers, matching the paper's measurement note in
// Sec. IV-C).
//
// Concurrency contract: Acc and Put from concurrent processes are safe
// (per-owner-block locking). Get is unsynchronized and must be separated
// from writes by a barrier, which is how the Fock builders use it
// (prefetch phase reads D; accumulate phase writes F).
type GlobalArray struct {
	Grid  *Grid2D
	data  []float64
	locks []sync.Mutex // one per owner block
	stats *RunStats
}

// NewGlobalArray creates a zeroed global array over grid, accounting into
// stats (which must have grid.NumProcs() entries).
func NewGlobalArray(grid *Grid2D, stats *RunStats) *GlobalArray {
	return &GlobalArray{
		Grid:  grid,
		data:  make([]float64, grid.Rows*grid.Cols),
		locks: make([]sync.Mutex, grid.NumProcs()),
		stats: stats,
	}
}

// charge records one one-sided call touching the given patches.
func (g *GlobalArray) charge(proc int, r0, r1, c0, c1 int) {
	st := &g.stats.Per[proc]
	st.Calls++
	elems := int64(r1-r0) * int64(c1-c0)
	st.Bytes += 8 * elems
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		if p.Proc != proc {
			st.RemoteBytes += 8 * int64(p.Elems())
		}
	}
}

// Get copies the patch [r0,r1) x [c0,c1) into dst with leading dimension
// ld (dst row stride). One GA call.
func (g *GlobalArray) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	g.charge(proc, r0, r1, c0, c1)
	w := c1 - c0
	for r := r0; r < r1; r++ {
		copy(dst[(r-r0)*ld:(r-r0)*ld+w], g.data[r*g.Grid.Cols+c0:r*g.Grid.Cols+c1])
	}
}

// Put stores src (leading dimension ld) into the patch. One GA call.
func (g *GlobalArray) Put(proc, r0, r1, c0, c1 int, src []float64, ld int) {
	g.charge(proc, r0, r1, c0, c1)
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		g.locks[p.Proc].Lock()
		for r := p.R0; r < p.R1; r++ {
			copy(g.data[r*g.Grid.Cols+p.C0:r*g.Grid.Cols+p.C1],
				src[(r-r0)*ld+(p.C0-c0):(r-r0)*ld+(p.C1-c0)])
		}
		g.locks[p.Proc].Unlock()
	}
}

// Acc atomically accumulates alpha*src into the patch. One GA call.
func (g *GlobalArray) Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) {
	g.charge(proc, r0, r1, c0, c1)
	for _, p := range g.Grid.Patches(r0, r1, c0, c1) {
		g.locks[p.Proc].Lock()
		for r := p.R0; r < p.R1; r++ {
			dst := g.data[r*g.Grid.Cols+p.C0 : r*g.Grid.Cols+p.C1]
			row := src[(r-r0)*ld+(p.C0-c0):]
			for i := range dst {
				dst[i] += alpha * row[i]
			}
		}
		g.locks[p.Proc].Unlock()
	}
}

// maxRetryBackoff caps the exponential backoff of the retry wrappers so
// a long retry run polls steadily instead of sleeping unboundedly.
const maxRetryBackoff = time.Second

// Jitter spreads a backoff interval uniformly over [d/2, 3d/2) so
// concurrent retriers desynchronize instead of hammering the transport
// in lockstep (retry-storm avoidance). Exported for the net backend.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// SleepBackoff sleeps a jittered backoff of nominally d (capped at 1s),
// returning early with ctx.Err() when the context expires first. A nil
// ctx means no deadline. Shared by every retry loop in this repository
// so backoff behavior (cap, jitter, deadline) is uniform across
// transports.
func SleepBackoff(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	d = Jitter(d)
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// GetRetry implements Backend: an in-process Get cannot fail, so it
// copies the patch once and reports no retries.
func (g *GlobalArray) GetRetry(_ context.Context, _ int, _ time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	g.Get(proc, r0, r1, c0, c1, dst, ld)
	return 0, nil
}

// AccFencedRetry implements Backend: an in-process Acc cannot fail, so
// it accumulates once and reports no retries.
func (g *GlobalArray) AccFencedRetry(_ context.Context, _ time.Duration, proc int, _ int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	g.Acc(proc, r0, r1, c0, c1, src, ld, alpha)
	return 0, nil
}

// ToMatrix copies the full array into a dense matrix (no accounting; a
// host-side convenience for verification and output).
func (g *GlobalArray) ToMatrix() *linalg.Matrix {
	m := linalg.NewMatrix(g.Grid.Rows, g.Grid.Cols)
	copy(m.Data, g.data)
	return m
}

// LoadMatrix fills the array from a dense matrix (no accounting).
func (g *GlobalArray) LoadMatrix(m *linalg.Matrix) {
	if m.Rows != g.Grid.Rows || m.Cols != g.Grid.Cols {
		panic("dist: LoadMatrix shape mismatch")
	}
	copy(g.data, m.Data)
}

// Zero resets all elements (no accounting).
func (g *GlobalArray) Zero() {
	for i := range g.data {
		g.data[i] = 0
	}
}

// RunProcs runs fn(rank) on p concurrent goroutine processes and waits for
// all of them (the SPMD launch used by real-mode algorithms).
func RunProcs(p int, fn func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(p)
	for rank := 0; rank < p; rank++ {
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(rank)
	}
	wg.Wait()
}
