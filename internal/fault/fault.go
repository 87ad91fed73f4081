// Package fault is a deterministic, seeded fault injector for the
// network transport of the real-mode runtime, plus the seeded kill
// schedules (ServerKillPlan, DaemonKillPlan) the process-kill chaos
// tests run. The injector models the connection faults a shard fleet
// sees — resets mid-RPC, duplicated delivery, slow links and partition
// windows — and the netga client consults it at its conn layer.
//
// Every decision is drawn from a per-rank PRNG seeded from Config.Seed,
// so a given (seed, rank) pair produces the same fault schedule
// regardless of goroutine interleaving. The injector itself never breaks
// anything: the client acts on its verdicts (see DESIGN.md, "Fault model
// and recovery").
package fault

import (
	"math/rand"
	"sync"
	"time"
)

// Config sets the fault rates. All probabilities are in [0, 1]; zero
// values disable the corresponding fault class.
type Config struct {
	Seed int64

	// NetResetProb resets the connection mid-RPC (the request may or may
	// not have been applied — exactly what idempotency tokens exist
	// for); NetDupProb delivers the request frame twice (exercising
	// server-side dedup); NetDelayProb holds the frame for NetDelayFor
	// (slow link).
	NetResetProb float64
	NetDupProb   float64
	NetDelayProb float64
	NetDelayFor  time.Duration

	// NetPartitionProb opens a partition window of NetPartitionFor
	// against the rank: every RPC it issues fails fast until the window
	// closes (the link heals by itself). A window longer than the
	// client's retry budget fails the build, which its caller retries
	// under a fresh session.
	NetPartitionProb float64
	NetPartitionFor  time.Duration

	// MaxConsecutiveNetFaults bounds the run of consecutive RNG-drawn
	// resets/partition-openings per rank (default 4), so retry budgets
	// are not exceeded forever. Active partition windows are exempt:
	// they are already bounded by NetPartitionFor.
	MaxConsecutiveNetFaults int
}

// NetOutcome is the conn-layer verdict for one RPC issued by a rank.
type NetOutcome int

const (
	// NetOK delivers the RPC normally (possibly after a delay).
	NetOK NetOutcome = iota
	// NetReset closes the connection mid-RPC; the client cannot know
	// whether the server applied the request and must retry with the
	// same idempotency token.
	NetReset
	// NetDup delivers the request frame twice; the server must dedup.
	NetDup
	// NetPartitioned fails the RPC fast: the rank is inside a partition
	// window and cannot reach the peer until the window closes.
	NetPartitioned
)

// Injector draws deterministic fault decisions per rank.
type Injector struct {
	cfg Config

	mu        sync.Mutex
	rngs      map[int]*rand.Rand
	netRuns   map[int]int       // consecutive net faults injected per rank
	partUntil map[int]time.Time // open partition window per rank
}

// New creates an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.MaxConsecutiveNetFaults <= 0 {
		cfg.MaxConsecutiveNetFaults = 4
	}
	return &Injector{
		cfg:       cfg,
		rngs:      map[int]*rand.Rand{},
		netRuns:   map[int]int{},
		partUntil: map[int]time.Time{},
	}
}

// rng returns the per-rank PRNG, creating it deterministically on first
// use. Callers hold inj.mu.
func (inj *Injector) rng(rank int) *rand.Rand {
	r, ok := inj.rngs[rank]
	if !ok {
		// SplitMix64-style decorrelation of the per-rank seed.
		s := inj.cfg.Seed + int64(rank+1)*-0x61c8864680b583eb
		s ^= s >> 31
		r = rand.New(rand.NewSource(s))
		inj.rngs[rank] = r
	}
	return r
}

// NetFault returns the conn-layer verdict for one RPC issued by rank: an
// artificial delay (slow link) to sleep before sending, and the delivery
// outcome. An already-open partition window fails the RPC regardless of
// the consecutive cap — the window is time-bounded by NetPartitionFor,
// so liveness is preserved — while fresh RNG-drawn resets and partition
// openings count against MaxConsecutiveNetFaults per rank, keeping runs
// of failures within any sane retry budget. Duplicated delivery is not a
// failure from the client's point of view and does not count.
func (inj *Injector) NetFault(rank int) (delay time.Duration, outcome NetOutcome) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	now := time.Now()
	if until, ok := inj.partUntil[rank]; ok {
		if now.Before(until) {
			return 0, NetPartitioned
		}
		delete(inj.partUntil, rank) // window closed: the link healed
	}
	r := inj.rng(rank)
	if inj.cfg.NetDelayProb > 0 && inj.cfg.NetDelayFor > 0 && r.Float64() < inj.cfg.NetDelayProb {
		delay = inj.cfg.NetDelayFor
	}
	capped := inj.netRuns[rank] >= inj.cfg.MaxConsecutiveNetFaults
	if inj.cfg.NetPartitionProb > 0 && inj.cfg.NetPartitionFor > 0 &&
		r.Float64() < inj.cfg.NetPartitionProb && !capped {
		inj.netRuns[rank]++
		inj.partUntil[rank] = now.Add(inj.cfg.NetPartitionFor)
		return 0, NetPartitioned
	}
	if inj.cfg.NetResetProb > 0 && r.Float64() < inj.cfg.NetResetProb && !capped {
		inj.netRuns[rank]++
		return delay, NetReset
	}
	inj.netRuns[rank] = 0
	if inj.cfg.NetDupProb > 0 && r.Float64() < inj.cfg.NetDupProb {
		return delay, NetDup
	}
	return delay, NetOK
}
