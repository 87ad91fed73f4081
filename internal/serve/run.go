package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
)

// EstimateSpec validates a job spec by actually building its molecule
// and basis, returning the basis-function count the memory admission
// charge is computed from. Malformed molecules and unknown basis sets
// are caught here, synchronously at submit, instead of failing after
// queueing.
func EstimateSpec(spec JobSpec) (int, error) {
	mol, err := chem.ParseSpec(spec.Molecule)
	if err != nil {
		return 0, err
	}
	bs, err := basis.Build(mol, spec.Basis)
	if err != nil {
		return 0, err
	}
	return bs.NumFuncs, nil
}

// FleetRunner executes jobs against a shared fockd shard fleet: each
// job attempt opens a fresh job-scoped netga session on every shard,
// runs the SCF with the distributed backend, and says goodbye. Shard
// failures (a killed/restarted multi-session server forgets the
// session and answers "unknown session") surface as build errors and
// are retried with exponential backoff from the job's last
// per-iteration checkpoint — under a NEW session id, so the fresh
// session's empty arrays and dedup state make double-accumulation from
// the dead attempt structurally impossible.
type FleetRunner struct {
	// Addrs are the multi-session shard servers (all jobs share them).
	Addrs []string
	// CheckpointDir holds one checkpoint file per job (required).
	CheckpointDir string
	// Prow, Pcol set the per-job process grid (default 2x2 — jobs are
	// small; scale comes from multiplexing many of them, not from one
	// wide grid).
	Prow, Pcol int
	// RetryMax bounds shard-failure retries per job (default 3); the
	// backoff before retry k is RetryBackoff<<k (default 50ms).
	RetryMax     int
	RetryBackoff time.Duration
	// OpTimeout is the per-RPC socket deadline (default netga's 2s).
	OpTimeout time.Duration
	// Fault, when non-nil, injects conn-layer network faults into every
	// job's clients (chaos mode).
	Fault *fault.Injector
	// TuneCore, when non-nil, adjusts each build's core.Options (trace
	// and metric sinks, say) after the runner's own settings.
	TuneCore func(*core.Options)
	// OnCheckpoint, when non-nil, is called after each iteration's
	// checkpoint is on disk (the HA tier pushes the job's checkpoint
	// pointer to the shared registry; best-effort, never blocks the SCF
	// on registry health).
	OnCheckpoint func(j *Job, iter int)
	// RPC and Serve are the shared metric sinks (may be nil).
	RPC   *metrics.RPC
	Serve *metrics.Serve

	sessionSeq atomic.Uint64
	// SessionNonce salts session ids so daemon restarts sharing a fleet
	// cannot collide; NewFleetRunner sets it from the clock.
	SessionNonce uint64
}

// NewFleetRunner builds a runner over the given shard fleet.
func NewFleetRunner(addrs []string, checkpointDir string) *FleetRunner {
	return &FleetRunner{
		Addrs:         addrs,
		CheckpointDir: checkpointDir,
		SessionNonce:  uint64(time.Now().UnixNano()),
	}
}

// Run executes one job to completion, retrying across shard failures.
func (r *FleetRunner) Run(ctx context.Context, j *Job) (*JobResult, error) {
	mol, err := chem.ParseSpec(j.Spec.Molecule)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", j.ID, err)
	}
	ckptPath := filepath.Join(r.CheckpointDir, j.ID+".ckpt")
	retryMax := r.RetryMax
	if retryMax <= 0 {
		retryMax = 3
	}
	backoff := r.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		res, err := r.attempt(ctx, j, mol, ckptPath)
		if err == nil {
			return res, nil
		}
		// Cancellation (deadline, park, drain, client cancel) is not a
		// shard failure: surface the cause, checkpoint already on disk.
		if ctx.Err() != nil {
			return nil, err
		}
		if attempt >= retryMax {
			return nil, fmt.Errorf("serve: job %s failed after %d retries: %w", j.ID, attempt, err)
		}
		r.Serve.AddRetry()
		j.mu.Lock()
		j.retries++
		j.appendLocked(Event{Type: "retry", Msg: err.Error()})
		j.mu.Unlock()
		select {
		case <-time.After(backoff << uint(attempt)):
		case <-ctx.Done():
			return nil, fmt.Errorf("serve: job %s: %w", j.ID, context.Cause(ctx))
		}
	}
}

// attempt runs the SCF once over fresh job-scoped sessions, resuming
// from the job's checkpoint when one exists.
func (r *FleetRunner) attempt(ctx context.Context, j *Job, mol *chem.Molecule, ckptPath string) (*JobResult, error) {
	session := r.SessionNonce ^ (r.sessionSeq.Add(1) << 20) ^ uint64(os.Getpid())
	if session == 0 {
		session = 1
	}
	prow, pcol := r.Prow, r.Pcol
	if prow <= 0 {
		prow = 2
	}
	if pcol <= 0 {
		pcol = 2
	}

	// One persistent client pair for all of this attempt's builds: Acc
	// dedup tokens are monotone within a session, so re-dialing per
	// build would replay token ranges and eat later builds' accumulates.
	var clD, clF *netga.Client
	dialed := false
	opt := scf.Options{
		BasisName: j.Spec.Basis,
		MaxIter:   j.Spec.MaxIter,
		ConvTol:   j.Spec.ConvTol,
		Ctx:       ctx,
		Engine:    scf.EngineGTFock,
		Prow:      prow, Pcol: pcol,
		CheckpointPath: ckptPath,
		FockBackend: func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
			if !dialed {
				assign, _ := netga.SplitProcs(grid.NumProcs(), len(r.Addrs))
				cfg := netga.Config{
					Session: session, OpTimeout: r.OpTimeout,
					RPC: r.RPC, Fault: r.Fault,
				}
				var err error
				cfg.Array = 0
				clD, err = netga.Dial(grid, stats, r.Addrs, assign, cfg)
				if err != nil {
					return nil, nil, nil, err
				}
				cfg.Array = 1
				clF, err = netga.Dial(grid, stats, r.Addrs, assign, cfg)
				if err != nil {
					clD.Close()
					clD = nil
					return nil, nil, nil, err
				}
				dialed = true
			}
			return clD, clF, nil, nil
		},
		TuneFock: r.TuneCore,
		OnIteration: func(iter int, it scf.Iteration) {
			// The iteration's checkpoint is on disk; advance the shard
			// sessions' dedup generation (safe: no Acc can still be
			// retrying across an iteration boundary) and the resume
			// cursor, then stream the progress event.
			if dialed {
				_ = clD.Checkpoint()
			}
			// Iteration 1 has no previous energy (DeltaE is NaN), and JSON
			// has no NaN: sanitize or the NDJSON encoder kills the stream.
			dE := it.DeltaE
			if math.IsNaN(dE) || math.IsInf(dE, 0) {
				dE = 0
			}
			j.mu.Lock()
			j.resumeAt = iter + 1
			j.appendLocked(Event{Type: "iteration", Iter: iter, Energy: it.Energy, DeltaE: dE})
			j.mu.Unlock()
			if r.OnCheckpoint != nil {
				r.OnCheckpoint(j, iter)
			}
		},
	}
	if ck, err := scf.LoadCheckpointFallback(ckptPath); err == nil && ck != nil {
		if verr := ck.Validate(mol.Formula(), j.Spec.Basis, j.NumBF); verr == nil {
			opt.InitialFock = ck.Fock()
			opt.StartIter = ck.Iter
		}
	}

	res, err := scf.RunHF(mol, opt)
	if dialed {
		if err == nil {
			// Graceful end: free the sessions' shard memory. Best
			// effort — a dead shard frees them by having restarted.
			_ = clD.Bye()
		}
		clD.Close()
		clF.Close()
	}
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, errors.New("serve: SCF did not converge within max iterations")
	}
	return &JobResult{Converged: true, Energy: res.Energy, Iterations: len(res.Iterations)}, nil
}
