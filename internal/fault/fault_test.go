package fault

import (
	"testing"
	"time"
)

// Two injectors with the same seed must produce identical decision
// sequences per rank, and different ranks must draw decorrelated ones.
func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, NetResetProb: 0.3, NetDupProb: 0.3}
	a, b := New(cfg), New(cfg)
	seq := func(inj *Injector, rank int) []NetOutcome {
		var out []NetOutcome
		for i := 0; i < 50; i++ {
			_, o := inj.NetFault(rank)
			out = append(out, o)
		}
		return out
	}
	sa0, sa1 := seq(a, 0), seq(a, 1)
	sb0 := seq(b, 0)
	varies := false
	for i := range sa0 {
		if sa0[i] != sb0[i] {
			t.Fatalf("decision %d differs between same-seed injectors", i)
		}
		if sa0[i] != sa1[i] {
			varies = true
		}
	}
	if !varies {
		t.Fatal("ranks 0 and 1 drew identical sequences; per-rank seeds not decorrelated")
	}
}

// Same-seed injectors must draw identical net-fault sequences per rank
// (with partition windows disabled, so wall-clock timing cannot skew the
// RNG consumption).
func TestNetFaultDeterministic(t *testing.T) {
	cfg := Config{
		Seed:         11,
		NetResetProb: 0.3,
		NetDupProb:   0.2,
		NetDelayProb: 0.2,
		NetDelayFor:  time.Microsecond,
	}
	a, b := New(cfg), New(cfg)
	type verdict struct {
		delay   time.Duration
		outcome NetOutcome
	}
	seq := func(inj *Injector, rank int) []verdict {
		var out []verdict
		for i := 0; i < 80; i++ {
			d, o := inj.NetFault(rank)
			out = append(out, verdict{d, o})
		}
		return out
	}
	sa0, sa1 := seq(a, 0), seq(a, 1)
	sb1, sb0 := seq(b, 1), seq(b, 0)
	seenReset, seenDup, seenDelay := false, false, false
	for i := range sa0 {
		if sa0[i] != sb0[i] || sa1[i] != sb1[i] {
			t.Fatalf("net verdict %d differs between same-seed injectors", i)
		}
		switch sa0[i].outcome {
		case NetReset:
			seenReset = true
		case NetDup:
			seenDup = true
		}
		if sa0[i].delay > 0 {
			seenDelay = true
		}
	}
	if !seenReset || !seenDup || !seenDelay {
		t.Fatalf("80 draws produced reset=%v dup=%v delay=%v; want all true",
			seenReset, seenDup, seenDelay)
	}
}

// Even at NetResetProb 1 the injector must cap consecutive RNG-drawn net
// faults so retry budgets suffice.
func TestNetFaultBoundsConsecutiveFaults(t *testing.T) {
	inj := New(Config{Seed: 3, NetResetProb: 1, MaxConsecutiveNetFaults: 2})
	run := 0
	for i := 0; i < 40; i++ {
		_, o := inj.NetFault(5)
		if o == NetReset {
			run++
			if run > 2 {
				t.Fatalf("%d consecutive resets, cap is 2", run)
			}
		} else {
			run = 0
		}
	}
}

// A partition window fails every RPC of the rank until it expires, then
// the link heals; other ranks are unaffected.
func TestNetFaultPartitionWindow(t *testing.T) {
	inj := New(Config{
		Seed:             9,
		NetPartitionProb: 1,
		NetPartitionFor:  30 * time.Millisecond,
	})
	if _, o := inj.NetFault(0); o != NetPartitioned {
		t.Fatalf("first draw at prob 1: got %v, want NetPartitioned", o)
	}
	// Inside the window, always partitioned.
	for i := 0; i < 5; i++ {
		if _, o := inj.NetFault(0); o != NetPartitioned {
			t.Fatalf("inside window: got %v, want NetPartitioned", o)
		}
	}
	// The consecutive cap (default 4) applies to window *openings*, not
	// to RPCs failed inside one window, so rank 0 is still partitioned —
	// while rank 1, opening its own windows, hits the cap after 4.
	opened := 0
	for i := 0; i < 3; i++ {
		if _, o := inj.NetFault(1); o == NetPartitioned {
			opened++
		}
		time.Sleep(35 * time.Millisecond) // let rank 1's window expire
	}
	if opened == 0 {
		t.Fatal("rank 1 never opened a partition window at prob 1")
	}
	// After rank 0's window expires the link heals. Rank 0 has opened
	// only 1 of its 4 allowed consecutive windows, so at prob 1 it would
	// immediately open another — observable as NetPartitioned again, but
	// the healing itself is observable once the cap is reached.
	inj.mu.Lock()
	inj.netRuns[0] = inj.cfg.MaxConsecutiveNetFaults
	inj.mu.Unlock()
	time.Sleep(35 * time.Millisecond)
	if _, o := inj.NetFault(0); o != NetOK {
		t.Fatalf("after window expiry with cap reached: got %v, want NetOK", o)
	}
}
