package dist

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A context deadline caps the wall time of the shared backoff sleep
// every retry loop runs on: a sleep far longer than the deadline must
// return the context error promptly, and an expired context must not
// sleep at all.
func TestRetryContextDeadlineCapsWallTime(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := SleepBackoff(ctx, 900*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SleepBackoff: want DeadlineExceeded, got %v", err)
	}
	if err := SleepBackoff(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("zero SleepBackoff on an expired context: want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 400*time.Millisecond {
		t.Fatalf("deadline-capped backoff took %v", elapsed)
	}
	if err := SleepBackoff(nil, time.Millisecond); err != nil {
		t.Fatalf("SleepBackoff without a context: %v", err)
	}
}

// Jitter must stay within [d/2, 3d/2) and preserve zero.
func TestJitterBounds(t *testing.T) {
	if Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := Jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("Jitter(%v) = %v out of [d/2, 3d/2)", d, j)
		}
	}
}
