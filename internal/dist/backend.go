package dist

import (
	"context"
	"time"

	"gtfock/internal/linalg"
)

// Backend is the one-sided Global Arrays surface a real-mode Fock build
// runs over. Two implementations exist:
//
//   - GlobalArray, the in-process shared-memory stand-in (goroutine
//     "processes"), whose operations cannot fail, and
//   - the TCP transport in internal/net (package netga), where the D and
//     F shards live in separate server processes and every Get/Acc is a
//     framed RPC with deadlines, bounded retries and idempotent
//     accumulation.
//
// core.Build is written against this interface, so the same build runs
// unchanged over either transport: it calls Get/Acc on its own
// in-process arrays and the error-returning GetRetry/AccFencedRetry on a
// backend supplied through core.Options.Backend.
type Backend interface {
	// Layout returns the 2D block distribution the backend serves.
	Layout() *Grid2D

	// Get copies the patch [r0,r1) x [c0,c1) into dst (leading dimension
	// ld), charging the call to proc. Infallible: a backend that cannot
	// deliver panics.
	Get(proc, r0, r1, c0, c1 int, dst []float64, ld int)

	// Acc atomically accumulates alpha*src into the patch. Infallible;
	// see Get.
	Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64)

	// GetRetry is Get with failures reported. Transport errors are
	// retried up to attempts tries, separated by capped, jittered
	// exponential backoff starting at backoff; zero for either selects
	// the backend's own retry policy (what core.Build passes). A
	// rejection by the server is not retried, and ctx cancellation
	// abandons the loop early. It returns the number of retries issued
	// and the error that ended the call.
	GetRetry(ctx context.Context, attempts int, backoff time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error)

	// AccFencedRetry is Acc with failures reported, under the backend's
	// own attempt budget (backoff, when positive, sets the initial
	// backoff as for GetRetry). Retries and duplicated deliveries of one
	// call land at most once within the backend's session; after an
	// error, part of the contribution may have landed, so the caller
	// abandons the session. epoch is unused; it stays so wrappers of
	// this interface, such as the benchmark's timing backend, compile.
	AccFencedRetry(ctx context.Context, backoff time.Duration, proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error)

	// LoadMatrix fills the array from a dense matrix; ToMatrix reads the
	// whole array back. Driver-side (not accounted, not fault-injected).
	LoadMatrix(m *linalg.Matrix)
	ToMatrix() *linalg.Matrix
}

// GlobalArray implements Backend.
var _ Backend = (*GlobalArray)(nil)

// Layout returns the grid of the array (Backend interface).
func (g *GlobalArray) Layout() *Grid2D { return g.Grid }
