package fault

import (
	"math/rand"
	"time"
)

// ServerKill is one scheduled SIGKILL of a shard server. Triggers are
// either operation-count based (kill once the server has handled at
// least AfterOps requests — the deterministic way to land "mid-build")
// or wall-clock based. Restart is the delay before the same slot is
// brought back; negative means never (the slot stays dead).
type ServerKill struct {
	Server   int           // server slot index
	AfterOps int64         // op-count trigger; 0 = use After instead
	After    time.Duration // wall-clock trigger when AfterOps == 0
	Restart  time.Duration // restart delay; < 0 = no restart
}

// ServerKillPlan draws a deterministic kill schedule from seed: kills
// entries spread round-robin over nservers slots, each triggered at an
// op count uniform in [minOps, maxOps) and restarted after restart. The
// schedule depends only on (seed, nservers, kills, minOps, maxOps), so a
// chaos run is reproducible per fault seed.
func ServerKillPlan(seed int64, nservers, kills int, minOps, maxOps int64, restart time.Duration) []ServerKill {
	if nservers <= 0 || kills <= 0 {
		return nil
	}
	if maxOps <= minOps {
		maxOps = minOps + 1
	}
	s := seed*-0x61c8864680b583eb + -0x61c8864680b583eb>>1
	s ^= s >> 31
	r := rand.New(rand.NewSource(s))
	plan := make([]ServerKill, kills)
	for i := range plan {
		plan[i] = ServerKill{
			Server:   i % nservers,
			AfterOps: minOps + r.Int63n(maxOps-minOps),
			Restart:  restart,
		}
	}
	return plan
}

// RunServerKills executes a kill schedule. It is transport-agnostic: ops
// reports the cumulative request count of the server currently occupying
// a slot, kill SIGKILLs it (abrupt teardown, no drain), and restart
// brings the slot back. Kills for one slot fire in schedule order; the
// runner returns when every kill (and its restart) has executed or stop
// closes. Callbacks run on this goroutine, so callers usually invoke
// RunServerKills from a dedicated one.
func RunServerKills(plan []ServerKill, ops func(slot int) int64, kill func(slot int), restart func(slot int), stop <-chan struct{}) {
	start := time.Now()
	for _, k := range plan {
		for {
			fire := false
			if k.AfterOps > 0 {
				fire = ops(k.Server) >= k.AfterOps
			} else {
				fire = time.Since(start) >= k.After
			}
			if fire {
				break
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		kill(k.Server)
		if k.Restart < 0 {
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(k.Restart):
		}
		restart(k.Server)
	}
}
