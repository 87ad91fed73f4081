package netga

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

// ErrPartitioned reports an RPC failed fast inside an injected partition
// window: nothing was sent, so the failure is provably clean.
var ErrPartitioned = errors.New("netga: partitioned from peer")

// errInjectedReset marks the ambiguous injected-reset outcome: the frame
// was sent and the conn torn down before the response. It classifies as a
// peer reset in the failure-cause counters, like the real thing.
var errInjectedReset = errors.New("netga: connection reset mid-RPC (injected)")

// classifyFailure splits a transport failure by cause so overload
// (expired deadlines) is distinguishable from faults (peer-torn conns) in
// reports. Socket deadline expiries surface as net.Error timeouts;
// peer-side kills surface as ECONNRESET/EPIPE on write or (unexpected)
// EOF on the response read.
func classifyFailure(rpc *metrics.RPC, err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		rpc.AddDeadlineExceeded()
		return
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, errInjectedReset) {
		rpc.AddPeerReset()
	}
}

// Config tunes a Client.
type Config struct {
	// Array selects which server-side array this client addresses
	// (0 = D, 1 = F).
	Array uint8
	// Session identifies one build (or one job attempt). A session id
	// the servers have not seen starts from zeroed arrays and an empty
	// dedup table; reusing it across reconnects resumes. Must be nonzero.
	Session uint64
	// OpTimeout is the socket deadline of one RPC attempt (default 2s).
	OpTimeout time.Duration
	// RPC, when non-nil, collects transport counters (latency, retries,
	// reconnects, injected faults). May be shared across clients.
	RPC *metrics.RPC
	// Fault, when non-nil, injects network faults (reset, duplicate
	// delivery, slow link, partition windows) at this conn layer, keyed
	// by the issuing rank. Driver-side ops (proc -1) are never faulted.
	Fault *fault.Injector
}

// Client is the TCP implementation of dist.Backend: every one-sided op
// becomes framed RPCs to the shard server hosting the touched block, with
// per-op deadlines, capped jittered retry, idempotency tokens on
// accumulates, and automatic reconnection. Epoch fencing is enforced
// here, client-side, where the lease ledger lives.
type Client struct {
	grid   *dist.Grid2D
	stats  *dist.RunStats
	assign []int
	pools  []*connPool
	cfg    Config
	fence  dist.Fence
	reqID  atomic.Uint64
	token  atomic.Uint64
	lost   atomic.Bool // a server answered "unknown session"
}

var _ dist.Backend = (*Client)(nil)

// Dial connects to the shard servers and installs (or validates) the
// session with a Hello on each, carrying the grid layout. assign[p] is
// the index in addrs of the server hosting proc p (see SplitProcs);
// stats may be nil for a driver-only client.
func Dial(grid *dist.Grid2D, stats *dist.RunStats, addrs []string, assign []int, cfg Config) (*Client, error) {
	if len(assign) != grid.NumProcs() {
		return nil, fmt.Errorf("netga: assignment covers %d procs, grid has %d", len(assign), grid.NumProcs())
	}
	for p, k := range assign {
		if k < 0 || k >= len(addrs) {
			return nil, fmt.Errorf("netga: proc %d assigned to server %d of %d", p, k, len(addrs))
		}
	}
	if cfg.Session == 0 {
		return nil, errors.New("netga: session id must be nonzero")
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	c := &Client{
		grid:   grid,
		stats:  stats,
		assign: append([]int(nil), assign...),
		pools:  make([]*connPool, len(addrs)),
		cfg:    cfg,
	}
	for i, addr := range addrs {
		c.pools[i] = &connPool{addr: addr, timeout: cfg.OpTimeout, rpc: cfg.RPC}
	}
	for _, pool := range c.pools {
		hello := request{
			Op: opHello, Session: cfg.Session, ReqID: c.reqID.Add(1),
			R0: int32(grid.Rows), C0: int32(grid.Cols),
			Msg: layoutMsg(grid),
		}
		resp, _, err := c.doRPC(-1, pool, &hello)
		if err == nil && resp.Status != statusOK {
			err = fmt.Errorf("netga: hello rejected by %s: %s", pool.addr, resp.Msg)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close tears down every pooled connection.
func (c *Client) Close() {
	for _, p := range c.pools {
		p.closeAll()
	}
}

// SessionLost reports whether a server has answered this client's
// session with "unknown session": the shard restarted (or the session
// was released) and its arrays are gone, so the build cannot complete
// under this session. Callers retry under a fresh session.
func (c *Client) SessionLost() bool { return c.lost.Load() }

// rejected turns a server rejection into the caller's error, noting a
// lost session on the way.
func (c *Client) rejected(what string, resp *response) error {
	if strings.HasPrefix(resp.Msg, unknownSessionMsg) {
		c.lost.Store(true)
	}
	return fmt.Errorf("netga: %s rejected: %s", what, resp.Msg)
}

// Layout returns the grid the shard servers are laid out over.
func (c *Client) Layout() *dist.Grid2D { return c.grid }

// Fallible reports true: network transport can always fail, so builds
// over this backend must use the retrying wrappers.
func (c *Client) Fallible() bool { return true }

// SetFence installs the epoch authority consulted by AccFencedRetry.
// The check runs client-side: the ledger lives in this (driver) process,
// and the commit protocol in core guarantees a fence cannot interleave
// with an open commit, so servers stay fence-oblivious.
func (c *Client) SetFence(f dist.Fence) { c.fence = f }

// charge mirrors dist.GlobalArray's per-call accounting so net-backed
// runs report the paper's Tables VI/VII quantities identically.
func (c *Client) charge(proc, r0, r1, c0, c1 int) {
	if c.stats == nil || proc < 0 {
		return
	}
	st := &c.stats.Per[proc]
	st.Calls++
	elems := int64(r1-r0) * int64(c1-c0)
	st.Bytes += 8 * elems
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		if p.Proc != proc {
			st.RemoteBytes += 8 * int64(p.Elems())
		}
	}
}

// connPool keeps idle conns to one shard server. Any conn that sees an
// error is discarded, so an idle conn never has residue of a previous
// RPC.
type connPool struct {
	addr    string
	timeout time.Duration
	rpc     *metrics.RPC

	mu        sync.Mutex
	idle      []net.Conn
	discarded int64
	closed    bool
}

func (p *connPool) get() (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return conn, nil
	}
	redial := p.discarded > 0
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", p.addr, p.timeout)
	if err != nil {
		return nil, err
	}
	if redial {
		p.rpc.AddReconnect()
	} else {
		p.rpc.AddDial()
	}
	return conn, nil
}

func (p *connPool) put(conn net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle = append(p.idle, conn)
	p.mu.Unlock()
}

func (p *connPool) discard(conn net.Conn) {
	conn.Close()
	p.mu.Lock()
	p.discarded++
	p.mu.Unlock()
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	p.mu.Unlock()
}

// doRPC performs one request/response exchange on a pooled conn, with
// the per-op socket deadline and (for worker ranks) the injected network
// fault verdict. sent reports whether any bytes of the request may have
// reached the wire: a failure with sent=false is provably clean (the
// server cannot have applied anything), while sent=true is ambiguous and
// the caller must retry the same idempotency token to resolution.
func (c *Client) doRPC(rank int, pool *connPool, req *request) (resp *response, sent bool, err error) {
	sendTwice := false
	if c.cfg.Fault != nil && rank >= 0 {
		delay, outcome := c.cfg.Fault.NetFault(rank)
		if outcome == fault.NetPartitioned {
			c.cfg.RPC.AddPartitioned()
			return nil, false, ErrPartitioned
		}
		if delay > 0 {
			time.Sleep(delay) // slow link
		}
		switch outcome {
		case fault.NetDup:
			sendTwice = true
			c.cfg.RPC.AddDupSend()
		case fault.NetReset:
			defer c.cfg.RPC.AddReset()
			// Send the frame, then tear the conn down before reading the
			// response: the client cannot know whether the server applied
			// the request — the ambiguity idempotency tokens exist for.
			conn, derr := pool.get()
			if derr != nil {
				return nil, false, derr
			}
			conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
			body := encodeRequest(nil, req)
			werr := writeFrame(conn, body)
			pool.discard(conn)
			if werr != nil {
				return nil, false, werr
			}
			return nil, true, errInjectedReset
		}
	}
	conn, derr := pool.get()
	if derr != nil {
		return nil, false, derr
	}
	conn.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
	bw := bufio.NewWriter(conn)
	body := encodeRequest(nil, req)
	sent = true
	if err := writeFrame(bw, body); err != nil {
		pool.discard(conn)
		return nil, true, err
	}
	if sendTwice {
		if err := writeFrame(bw, body); err != nil {
			pool.discard(conn)
			return nil, true, err
		}
	}
	if err := bw.Flush(); err != nil {
		pool.discard(conn)
		return nil, true, err
	}
	br := bufio.NewReader(conn)
	reads := 1
	if sendTwice {
		reads = 2 // second response (the dedup ack) is read and dropped
	}
	var out response
	for i := 0; i < reads; i++ {
		frame, rerr := readFrame(br)
		if rerr != nil {
			pool.discard(conn)
			return nil, true, rerr
		}
		var r response
		if derr := decodeResponse(frame, &r); derr != nil {
			pool.discard(conn)
			return nil, true, derr
		}
		if r.ReqID != req.ReqID {
			pool.discard(conn)
			return nil, true, fmt.Errorf("netga: response for req %d, want %d", r.ReqID, req.ReqID)
		}
		if i == 0 {
			out = r
		}
	}
	conn.SetDeadline(time.Time{})
	pool.put(conn)
	return &out, true, nil
}

// growWait doubles a backoff up to the shared 1s cap (dist.SleepBackoff
// caps and jitters the actual sleep; this just shapes the progression).
func growWait(wait time.Duration) time.Duration {
	if wait > 0 && wait < time.Second {
		wait *= 2
	}
	return wait
}

// GetRetry implements dist.Backend: the region is decomposed into
// per-owner patches, each fetched as one RPC retried up to attempts
// times with capped jittered backoff, abandoned early when ctx expires.
// Gets never mutate server state, so abandonment is always clean.
func (c *Client) GetRetry(ctx context.Context, attempts int, backoff time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	c.charge(proc, r0, r1, c0, c1)
	if attempts <= 0 {
		attempts = 1
	}
	retries := 0
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		req := request{
			Op: opGet, Array: c.cfg.Array, Session: c.cfg.Session,
			Proc: int32(proc), R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
		}
		start := time.Now()
		wait := backoff
		var err error
		for a := 0; a < attempts; a++ {
			if a > 0 {
				retries++
				c.countRetry()
				if cerr := dist.SleepBackoff(ctx, wait); cerr != nil {
					c.cfg.RPC.AddFailure()
					c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
					return retries, cerr
				}
				wait = growWait(wait)
			}
			req.ReqID = c.reqID.Add(1)
			var resp *response
			resp, _, err = c.doRPC(proc, c.pools[c.assign[p.Proc]], &req)
			if err != nil {
				classifyFailure(c.cfg.RPC, err)
			}
			if err == nil && resp.Status != statusOK {
				// A server rejection is deterministic; retrying cannot help.
				c.cfg.RPC.AddFailure()
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				return retries, c.rejected("get", resp)
			}
			if err == nil {
				w := p.C1 - p.C0
				if len(resp.Data) != (p.R1-p.R0)*w {
					c.cfg.RPC.AddFailure()
					return retries, fmt.Errorf("netga: get returned %d values, want %d", len(resp.Data), (p.R1-p.R0)*w)
				}
				for r := p.R0; r < p.R1; r++ {
					copy(dst[(r-r0)*ld+(p.C0-c0):(r-r0)*ld+(p.C1-c0)], resp.Data[(r-p.R0)*w:(r-p.R0)*w+w])
				}
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				break
			}
		}
		if err != nil {
			c.cfg.RPC.AddFailure()
			c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
			return retries, err
		}
	}
	return retries, nil
}

// AccFencedRetry implements dist.Backend with exactly-once semantics
// over an at-least-once transport: each per-owner patch gets one
// idempotency token, reused across every retry, so the server applies it
// once no matter how delivery fails or duplicates.
//
// ctx and the fence are honored only while the call is provably clean —
// no frame of it has reached the wire. The first (possibly) sent frame
// is the point of no return: from there the only exits are landing every
// remaining patch (retrying on an unbounded context; the injector's
// consecutive-fault caps and partition windows bound this in practice)
// or a deterministic server rejection, so a ctx error reported to the
// caller always means "nothing applied" and core may abort cleanly.
func (c *Client) AccFencedRetry(ctx context.Context, backoff time.Duration, proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	c.charge(proc, r0, r1, c0, c1)
	retries := 0
	committed := false
	for _, p := range c.grid.Patches(r0, r1, c0, c1) {
		w := p.C1 - p.C0
		data := make([]float64, (p.R1-p.R0)*w)
		for r := p.R0; r < p.R1; r++ {
			copy(data[(r-p.R0)*w:(r-p.R0)*w+w], src[(r-r0)*ld+(p.C0-c0):(r-r0)*ld+(p.C1-c0)])
		}
		req := request{
			Op: opAcc, Array: c.cfg.Array, Session: c.cfg.Session,
			Token: uint64(c.cfg.Array+1)<<56 | c.token.Add(1),
			Epoch: epoch, Proc: int32(proc), Alpha: alpha,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
			Data: data,
		}
		start := time.Now()
		wait := backoff
		for {
			if !committed && c.fence != nil && !c.fence.ValidEpoch(proc, epoch) {
				return retries, dist.ErrFenced
			}
			req.ReqID = c.reqID.Add(1)
			resp, sent, err := c.doRPC(proc, c.pools[c.assign[p.Proc]], &req)
			if sent {
				committed = true
			}
			if err != nil {
				classifyFailure(c.cfg.RPC, err)
			}
			if err == nil && resp.Status != statusOK {
				c.cfg.RPC.AddFailure()
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				return retries, c.rejected("acc", resp)
			}
			if err == nil {
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				break
			}
			retries++
			c.countRetry()
			sctx := ctx
			if committed {
				sctx = nil // past the point of no return: retry unbounded
			}
			if cerr := dist.SleepBackoff(sctx, wait); cerr != nil {
				c.cfg.RPC.AddFailure()
				c.cfg.RPC.ObserveCall(time.Since(start).Nanoseconds())
				return retries, cerr
			}
			wait = growWait(wait)
		}
	}
	return retries, nil
}

func (c *Client) countRetry() {
	c.cfg.RPC.AddRetry()
	if c.stats != nil {
		atomic.AddInt64(&c.stats.Recovery.OpRetries, 1)
	}
}

// Get implements the infallible Backend read. The netga backend is
// always fallible, so core never calls this; it exists for tests and
// panics if the transport cannot deliver.
func (c *Client) Get(proc, r0, r1, c0, c1 int, dst []float64, ld int) {
	if _, err := c.GetRetry(context.Background(), 8, 5*time.Millisecond, proc, r0, r1, c0, c1, dst, ld); err != nil {
		panic(fmt.Sprintf("netga: infallible Get failed: %v", err))
	}
}

// Acc implements the infallible Backend accumulate; see Get.
func (c *Client) Acc(proc, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) {
	fence := c.fence
	c.fence = nil
	defer func() { c.fence = fence }()
	if _, err := c.AccFencedRetry(context.Background(), 5*time.Millisecond, proc, 0, r0, r1, c0, c1, src, ld, alpha); err != nil {
		panic(fmt.Sprintf("netga: infallible Acc failed: %v", err))
	}
}

// driverAttempts bounds the driver-side ops' retries of transport
// errors; the backoff doubles from 5ms up to the shared 1s cap.
const driverAttempts = 10

// driverOp runs one un-faulted, un-accounted RPC for the driver-side
// ops (whole-matrix load/gather, checkpoint, bye, blobs), retrying
// transport errors.
func (c *Client) driverOp(pool *connPool, req *request) (*response, error) {
	var err error
	wait := 5 * time.Millisecond
	for a := 0; a < driverAttempts; a++ {
		if a > 0 {
			if cerr := dist.SleepBackoff(context.Background(), wait); cerr != nil {
				return nil, cerr
			}
			wait = growWait(wait)
		}
		req.ReqID = c.reqID.Add(1)
		var resp *response
		resp, _, err = c.doRPC(-1, pool, req)
		if err != nil {
			classifyFailure(c.cfg.RPC, err)
			continue
		}
		if resp.Status != statusOK {
			return nil, c.rejected("driver op", resp)
		}
		return resp, nil
	}
	return nil, err
}

// driverOpProc is driverOp against the server hosting proc's block.
func (c *Client) driverOpProc(proc int, req *request) (*response, error) {
	return c.driverOp(c.pools[c.assign[proc]], req)
}

// Checkpoint advances the dedup-eviction generation on every shard: the
// driver calls it at a session checkpoint (an SCF iteration boundary),
// when no accumulate can still be retrying, so tokens are only ever
// evicted a full generation after their op completed.
func (c *Client) Checkpoint() error {
	req := request{Op: opCheckpoint, Session: c.cfg.Session, Proc: -1}
	for _, pool := range c.pools {
		if _, err := c.driverOp(pool, &req); err != nil {
			return fmt.Errorf("netga: checkpoint: %w", err)
		}
	}
	return nil
}

// Bye releases this client's session on every shard, freeing its
// arrays, dedup state and blobs. Callers invoke it once per session,
// after its last build, before Close.
func (c *Client) Bye() error {
	req := request{Op: opBye, Session: c.cfg.Session, Proc: -1}
	var firstErr error
	for _, pool := range c.pools {
		if _, err := c.driverOp(pool, &req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// blobProc maps a stored-ERI spill key to the proc whose hosting shard
// stores the blob, spreading spill capacity across the fleet.
func (c *Client) blobProc(key uint64) int {
	return int(key % uint64(c.grid.NumProcs()))
}

// PutBlob implements the integrals.BlobStore spill surface over the
// shard fleet: the blob lands on the shard hosting proc key%nprocs, so
// stored-ERI spill capacity scales with servers. Driver-path semantics
// (bounded retries, not fault-injected): blob ops
// are cache maintenance, not part of the exactly-once commit protocol —
// a final failure makes the store drop the entry and recompute.
func (c *Client) PutBlob(key uint64, vals []float64) error {
	req := request{Op: opPutBlob, Session: c.cfg.Session, Token: key, Proc: -1, Data: vals}
	_, err := c.driverOpProc(c.blobProc(key), &req)
	return err
}

// GetBlob fetches a spill blob into dst. Every failure — a shard that
// restarted (blobs are volatile by design), a miss, a transport error —
// surfaces as an error the store maps to a recompute.
func (c *Client) GetBlob(key uint64, dst []float64) ([]float64, error) {
	req := request{Op: opGetBlob, Session: c.cfg.Session, Token: key, Proc: -1}
	resp, err := c.driverOpProc(c.blobProc(key), &req)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], resp.Data...), nil
}

// LoadMatrix distributes a dense matrix to the shard servers, one Put
// per grid block (driver-side: not accounted, not fault-injected).
// Callers that can recover from a dead fleet — a multi-tenant daemon
// that must not crash on one job's shard loss — use LoadMatrixErr.
func (c *Client) LoadMatrix(m *linalg.Matrix) {
	if err := c.LoadMatrixErr(m); err != nil {
		panic(fmt.Sprintf("netga: LoadMatrix: %v", err))
	}
}

// LoadMatrixErr is LoadMatrix with the transport failure surfaced as an
// error instead of a panic; core.Build prefers it when the backend
// provides it, turning a shard lost mid-build into a failed (retryable)
// build rather than a crashed process.
func (c *Client) LoadMatrixErr(m *linalg.Matrix) error {
	if m.Rows != c.grid.Rows || m.Cols != c.grid.Cols {
		return fmt.Errorf("netga: LoadMatrix shape %dx%d, grid %dx%d", m.Rows, m.Cols, c.grid.Rows, c.grid.Cols)
	}
	for _, p := range c.grid.Patches(0, c.grid.Rows, 0, c.grid.Cols) {
		w := p.C1 - p.C0
		data := make([]float64, (p.R1-p.R0)*w)
		for r := p.R0; r < p.R1; r++ {
			copy(data[(r-p.R0)*w:(r-p.R0)*w+w], m.Data[r*m.Cols+p.C0:r*m.Cols+p.C1])
		}
		req := request{
			Op: opPut, Array: c.cfg.Array, Session: c.cfg.Session, Proc: -1,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
			Data: data,
		}
		if _, err := c.driverOpProc(p.Proc, &req); err != nil {
			return err
		}
	}
	return nil
}

// ToMatrix gathers the full array from the shard servers, one Get per
// grid block (driver-side; see LoadMatrix and ToMatrixErr).
func (c *Client) ToMatrix() *linalg.Matrix {
	m, err := c.ToMatrixErr()
	if err != nil {
		panic(fmt.Sprintf("netga: ToMatrix: %v", err))
	}
	return m
}

// ToMatrixErr is ToMatrix with failures surfaced as errors (see
// LoadMatrixErr).
func (c *Client) ToMatrixErr() (*linalg.Matrix, error) {
	m := linalg.NewMatrix(c.grid.Rows, c.grid.Cols)
	for _, p := range c.grid.Patches(0, c.grid.Rows, 0, c.grid.Cols) {
		req := request{
			Op: opGet, Array: c.cfg.Array, Session: c.cfg.Session, Proc: -1,
			R0: int32(p.R0), R1: int32(p.R1), C0: int32(p.C0), C1: int32(p.C1),
		}
		resp, err := c.driverOpProc(p.Proc, &req)
		if err != nil {
			return nil, err
		}
		w := p.C1 - p.C0
		for r := p.R0; r < p.R1; r++ {
			copy(m.Data[r*m.Cols+p.C0:r*m.Cols+p.C1], resp.Data[(r-p.R0)*w:(r-p.R0)*w+w])
		}
	}
	return m, nil
}
