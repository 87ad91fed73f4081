package netga

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"gtfock/internal/dist"
)

// layout is the grid geometry a client sends in its Hello Msg, so a
// shard can host arrays for a grid it has never seen.
type layout struct {
	Prow    int   `json:"prow"`
	Pcol    int   `json:"pcol"`
	RowCuts []int `json:"row_cuts"`
	ColCuts []int `json:"col_cuts"`
}

// layoutMsg serializes a grid's layout for the Hello handshake.
func layoutMsg(g *dist.Grid2D) string {
	b, _ := json.Marshal(layout{Prow: g.Prow, Pcol: g.Pcol, RowCuts: g.RowCuts, ColCuts: g.ColCuts})
	return string(b)
}

// maxDim bounds a session's matrix dimension, so the byte charge of
// even the largest admissible Hello cannot overflow before the memory
// budget sees it.
const maxDim = 1 << 20

// parseLayout validates and reconstructs a client grid from a Hello.
// rows/cols are the matrix dimensions the client put in R0/C0, which the
// cut vectors must agree with.
func parseLayout(msg string, rows, cols int) (*dist.Grid2D, error) {
	if msg == "" {
		return nil, fmt.Errorf("netga: hello carries no grid layout")
	}
	if rows <= 0 || cols <= 0 || rows > maxDim || cols > maxDim {
		return nil, fmt.Errorf("netga: geometry %dx%d outside [1, %d]", rows, cols, maxDim)
	}
	var l layout
	if err := json.Unmarshal([]byte(msg), &l); err != nil {
		return nil, fmt.Errorf("netga: bad grid layout: %w", err)
	}
	if l.Prow <= 0 || l.Pcol <= 0 ||
		len(l.RowCuts) != l.Prow+1 || len(l.ColCuts) != l.Pcol+1 {
		return nil, fmt.Errorf("netga: grid layout %dx%d with %d/%d cuts", l.Prow, l.Pcol, len(l.RowCuts), len(l.ColCuts))
	}
	for _, cv := range [][]int{l.RowCuts, l.ColCuts} {
		if !sort.IntsAreSorted(cv) || cv[0] != 0 {
			return nil, fmt.Errorf("netga: grid cuts not monotone from zero")
		}
	}
	if l.RowCuts[l.Prow] != rows || l.ColCuts[l.Pcol] != cols {
		return nil, fmt.Errorf("netga: grid cuts end at %dx%d, geometry says %dx%d",
			l.RowCuts[l.Prow], l.ColCuts[l.Pcol], rows, cols)
	}
	return dist.NewGrid2D(l.Prow, l.Pcol, l.RowCuts, l.ColCuts), nil
}

// jobSession is one build's (or one job's) shard state on a MultiServer:
// its own grid, arrays, dedup generations and spill blobs, fully
// isolated from every other session. Lifetime: installed by the first
// Hello, released by opBye (or the server's Close). Deliberately
// volatile — a restarted server forgets its sessions, data ops answer
// "unknown session", and the caller retries under a FRESH session id
// (the SCF resumes from its checkpoint), which is what keeps a retried
// build from ever double-accumulating: a new session means empty arrays
// and an empty dedup table.
type jobSession struct {
	grid *dist.Grid2D

	mu       sync.Mutex
	seenCur  map[uint64]bool
	seenPrev map[uint64]bool
	arrays   [numArrays][]float64
	blobs    map[uint64][]float64
	bytes    int64 // resident accounting charged against the server budget
}

// MultiServerStats is a point-in-time counter snapshot of a MultiServer.
type MultiServerStats struct {
	Requests       int64 `json:"requests"`
	Rejects        int64 `json:"rejects"`
	AccApplied     int64 `json:"acc_applied"`
	AccDups        int64 `json:"acc_dups"`
	SessionsOpen   int   `json:"sessions_open"`
	SessionsOpened int64 `json:"sessions_opened"`
	SessionsClosed int64 `json:"sessions_closed"`
	// SessionRejects counts Hellos refused by the session-table cap or the
	// resident-memory budget — the shard-level admission control.
	SessionRejects int64 `json:"session_rejects,omitempty"`
	MemUsed        int64 `json:"mem_used"`
	MemBudget      int64 `json:"mem_budget,omitempty"`
}

// MultiServer is the shard server: it hosts the D and F blocks of its
// share of the process grid for many concurrent sessions, each with its
// own grid geometry and arrays, and serves framed one-sided RPCs over
// TCP. Its job is idempotent application (token dedup), so
// at-least-once delivery from retrying clients becomes exactly-once
// accumulation within a session. One fockbuild run is one
// session; the HF service multiplexes thousands of small SCF jobs onto
// one fleet, one session per job attempt.
//
// Admission is enforced at the shard: a Hello that would exceed
// maxSessions or the resident-memory budget is refused with a statusErr
// the serving layer surfaces as a 503-style rejection, so the fleet can
// never be grown into an OOM by accepting jobs.
type MultiServer struct {
	nservers, index int
	maxSessions     int
	memBudget       int64

	mu       sync.Mutex
	sessions map[uint64]*jobSession
	memUsed  int64
	conns    map[net.Conn]bool
	closed   bool

	ln      net.Listener
	boundTo string
	wg      sync.WaitGroup

	requests, rejects, accApplied, accDups         atomic.Int64
	sessionsOpened, sessionsClosed, sessionRejects atomic.Int64
}

// DefaultMemBudgetMB is fockd's resident memory budget per shard, in
// MiB, unless -multi-mem-mb overrides it. Bounding it by default means a
// single Hello cannot ask a shard for the full 2^20-per-side geometry:
// it is refused with an error status before anything is allocated. At
// 16 bytes per matrix element (sessionBytes), 1 GiB admits one session
// of up to 8192 basis functions, or many smaller ones.
const DefaultMemBudgetMB = 1024

// NewMultiServer creates shard index of nservers. maxSessions caps
// concurrently resident sessions (0 = a generous default) and memBudget
// the summed resident array and blob bytes across sessions
// (0 = unlimited). The hosted proc set is not fixed at
// construction: it is derived per session from SplitProcs over that
// session's grid, so every job, whatever its geometry, splits across the
// same nservers shards deterministically.
func NewMultiServer(nservers, index, maxSessions int, memBudget int64) (*MultiServer, error) {
	if nservers <= 0 || index < 0 || index >= nservers {
		return nil, fmt.Errorf("netga: multi-server index %d of %d", index, nservers)
	}
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	return &MultiServer{
		nservers:    nservers,
		index:       index,
		maxSessions: maxSessions,
		memBudget:   memBudget,
		sessions:    map[uint64]*jobSession{},
		conns:       map[net.Conn]bool{},
	}, nil
}

// Start listens on addr and serves until Close/Kill; returns the bound
// address.
func (s *MultiServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.boundTo = ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return s.boundTo, nil
}

// Addr returns the bound address (valid after Start).
func (s *MultiServer) Addr() string { return s.boundTo }

// Close tears the server down abruptly: all sessions are lost, exactly
// like a process kill — clients see "unknown session" after a restart and
// the serving layer retries jobs under fresh sessions.
func (s *MultiServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// Kill is Close under its chaos-test name.
func (s *MultiServer) Kill() { s.Close() }

// Stats snapshots the server counters.
func (s *MultiServer) Stats() MultiServerStats {
	s.mu.Lock()
	open := len(s.sessions)
	mem := s.memUsed
	s.mu.Unlock()
	return MultiServerStats{
		Requests:       s.requests.Load(),
		Rejects:        s.rejects.Load(),
		AccApplied:     s.accApplied.Load(),
		AccDups:        s.accDups.Load(),
		SessionsOpen:   open,
		SessionsOpened: s.sessionsOpened.Load(),
		SessionsClosed: s.sessionsClosed.Load(),
		SessionRejects: s.sessionRejects.Load(),
		MemUsed:        mem,
		MemBudget:      s.memBudget,
	}
}

func (s *MultiServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var buf []byte
	for {
		body, err := readFrame(br)
		if err != nil {
			return
		}
		var req request
		var resp response
		if err := decodeRequest(body, &req); err != nil {
			resp = response{Status: statusErr, Msg: err.Error()}
		} else {
			resp = s.handle(&req)
		}
		if resp.Status == statusErr {
			s.rejects.Add(1)
		}
		buf = encodeResponse(buf, &resp)
		if err := writeFrame(bw, buf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (s *MultiServer) handle(req *request) response {
	s.requests.Add(1)
	switch req.Op {
	case opHello:
		return s.hello(req)
	case opPing:
		return response{ReqID: req.ReqID}
	case opBye:
		return s.bye(req)
	case opGet, opPut, opAcc, opCheckpoint, opPutBlob, opGetBlob:
		// fall through to the session-scoped data path below
	default:
		return errResp(req.ReqID, "netga: unknown op %d", req.Op)
	}
	s.mu.Lock()
	js := s.sessions[req.Session]
	s.mu.Unlock()
	if js == nil {
		// Deterministic rejection: a restarted shard (or an evicted/ended
		// session) makes the client's build fail cleanly; the serving layer
		// retries the job from its checkpoint under a fresh session.
		return errResp(req.ReqID, "%s %d", unknownSessionMsg, req.Session)
	}
	switch req.Op {
	case opCheckpoint:
		js.mu.Lock()
		js.seenPrev = js.seenCur
		js.seenCur = map[uint64]bool{}
		js.mu.Unlock()
		return response{ReqID: req.ReqID}
	case opPutBlob:
		return s.putBlob(req, js)
	case opGetBlob:
		return s.getBlob(req, js)
	}
	return s.dataOp(req, js)
}

// sessionBytes is the resident charge of one session on this shard. The
// backing store covers the full matrix for indexing simplicity (only the
// hosted patches are ever addressed); for the small molecules the HF
// service multiplexes, simplicity beats the constant factor, and the
// admission budget accounts for it honestly.
func sessionBytes(g *dist.Grid2D) int64 {
	return int64(numArrays) * int64(g.Rows) * int64(g.Cols) * 8
}

// hello installs or validates a job session. New sessions are admitted
// against the session-table cap and the memory budget; a re-Hello of a
// live session (the F client after the D client, or a reconnect)
// validates geometry and changes nothing.
func (s *MultiServer) hello(req *request) response {
	if req.Session == 0 {
		return errResp(req.ReqID, "netga: session id must be nonzero")
	}
	rows, cols := int(req.R0), int(req.C0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if js := s.sessions[req.Session]; js != nil {
		if js.grid.Rows != rows || js.grid.Cols != cols {
			return errResp(req.ReqID, "netga: geometry mismatch: client %dx%d, session %dx%d",
				rows, cols, js.grid.Rows, js.grid.Cols)
		}
		return response{ReqID: req.ReqID}
	}
	grid, err := parseLayout(req.Msg, rows, cols)
	if err != nil {
		return errResp(req.ReqID, "%v", err)
	}
	need := sessionBytes(grid)
	if len(s.sessions) >= s.maxSessions {
		s.sessionRejects.Add(1)
		return errResp(req.ReqID, "netga: session table full (%d sessions)", len(s.sessions))
	}
	if s.memBudget > 0 && s.memUsed+need > s.memBudget {
		s.sessionRejects.Add(1)
		return errResp(req.ReqID, "netga: session memory budget exceeded (%d + %d > %d bytes)",
			s.memUsed, need, s.memBudget)
	}
	js := &jobSession{
		grid:     grid,
		seenCur:  map[uint64]bool{},
		seenPrev: map[uint64]bool{},
		blobs:    map[uint64][]float64{},
		bytes:    need,
	}
	for a := range js.arrays {
		js.arrays[a] = make([]float64, grid.Rows*grid.Cols)
	}
	s.sessions[req.Session] = js
	s.memUsed += need
	s.sessionsOpened.Add(1)
	return response{ReqID: req.ReqID}
}

// bye releases a session and returns its memory to the budget. Idempotent:
// saying goodbye to an unknown session (a retried Bye after the first one
// landed) is acknowledged, not an error.
func (s *MultiServer) bye(req *request) response {
	s.mu.Lock()
	if js := s.sessions[req.Session]; js != nil {
		js.mu.Lock() // drain a concurrent data op before the state goes away
		s.memUsed -= js.bytes + js.blobBytesLocked()
		js.mu.Unlock()
		delete(s.sessions, req.Session)
		s.sessionsClosed.Add(1)
	}
	s.mu.Unlock()
	return response{ReqID: req.ReqID}
}

func (js *jobSession) blobBytesLocked() int64 {
	var n int64
	for _, b := range js.blobs {
		n += int64(8 * len(b))
	}
	return n
}

// hostedBy reports whether this shard hosts proc p of a session's grid,
// under the one canonical assignment every client uses.
func (s *MultiServer) hostedBy(g *dist.Grid2D, p int) bool {
	return p*s.nservers/g.NumProcs() == s.index
}

// dataOp serves Get/Put/Acc against one session's arrays: the patch must
// lie within exactly one block, and that block must be assigned to this
// shard (a misrouted request is rejected, catching routing bugs instead
// of serving zeros).
func (s *MultiServer) dataOp(req *request, js *jobSession) response {
	if int(req.Array) >= numArrays {
		return errResp(req.ReqID, "netga: bad array id %d", req.Array)
	}
	g := js.grid
	r0, r1, c0, c1 := int(req.R0), int(req.R1), int(req.C0), int(req.C1)
	if r0 < 0 || r1 > g.Rows || c0 < 0 || c1 > g.Cols || r0 >= r1 || c0 >= c1 {
		return errResp(req.ReqID, "netga: bad patch [%d,%d)x[%d,%d)", r0, r1, c0, c1)
	}
	ps := g.Patches(r0, r1, c0, c1)
	if len(ps) != 1 {
		return errResp(req.ReqID, "netga: patch spans %d owners, want 1", len(ps))
	}
	if !s.hostedBy(g, ps[0].Proc) {
		return errResp(req.ReqID, "netga: proc %d not hosted here", ps[0].Proc)
	}
	w := c1 - c0
	switch req.Op {
	case opGet:
		data := make([]float64, (r1-r0)*w)
		js.mu.Lock()
		for r := r0; r < r1; r++ {
			copy(data[(r-r0)*w:(r-r0)*w+w], js.arrays[req.Array][r*g.Cols+c0:r*g.Cols+c1])
		}
		js.mu.Unlock()
		return response{ReqID: req.ReqID, Data: data}
	case opPut, opAcc:
		if len(req.Data) != (r1-r0)*w {
			return errResp(req.ReqID, "netga: payload %d values, want %d", len(req.Data), (r1-r0)*w)
		}
		js.mu.Lock()
		if req.Op == opAcc && req.Token != 0 {
			if js.seenCur[req.Token] || js.seenPrev[req.Token] {
				js.mu.Unlock()
				s.accDups.Add(1)
				return response{ReqID: req.ReqID, Dup: 1}
			}
			js.seenCur[req.Token] = true
		}
		for r := r0; r < r1; r++ {
			dst := js.arrays[req.Array][r*g.Cols+c0 : r*g.Cols+c1]
			row := req.Data[(r-r0)*w : (r-r0)*w+w]
			if req.Op == opPut {
				copy(dst, row)
			} else {
				for i := range dst {
					dst[i] += req.Alpha * row[i]
				}
			}
		}
		js.mu.Unlock()
		if req.Op == opAcc {
			s.accApplied.Add(1)
		}
		return response{ReqID: req.ReqID}
	}
	return errResp(req.ReqID, "netga: unknown op %d", req.Op)
}

// putBlob stores a session-scoped spill blob first-writer-wins; its bytes
// are charged to the server's memory budget (best effort: over budget the
// blob is refused and the client's store falls back to drop/recompute).
func (s *MultiServer) putBlob(req *request, js *jobSession) response {
	if req.Token == 0 {
		return errResp(req.ReqID, "netga: blob key must be nonzero")
	}
	if len(req.Data) == 0 {
		return errResp(req.ReqID, "netga: empty blob")
	}
	add := int64(8 * len(req.Data))
	s.mu.Lock()
	if s.memBudget > 0 && s.memUsed+add > s.memBudget {
		s.mu.Unlock()
		s.sessionRejects.Add(1)
		return errResp(req.ReqID, "netga: blob over memory budget")
	}
	js.mu.Lock()
	if _, ok := js.blobs[req.Token]; !ok {
		js.blobs[req.Token] = append([]float64(nil), req.Data...)
		s.memUsed += add
	}
	js.mu.Unlock()
	s.mu.Unlock()
	return response{ReqID: req.ReqID}
}

func (s *MultiServer) getBlob(req *request, js *jobSession) response {
	js.mu.Lock()
	data := js.blobs[req.Token]
	js.mu.Unlock()
	if data == nil {
		return errResp(req.ReqID, blobMissMsg)
	}
	return response{ReqID: req.ReqID, Data: data}
}

func errResp(reqID uint64, format string, args ...any) response {
	return response{Status: statusErr, ReqID: reqID, Msg: fmt.Sprintf(format, args...)}
}

// SplitProcs assigns nprocs grid blocks contiguously across nservers
// shard servers: assign[p] is the server index hosting proc p, and
// hosted[k] lists server k's procs. Clients and servers must use the
// same assignment; this is the one canonical scheme.
func SplitProcs(nprocs, nservers int) (assign []int, hosted [][]int) {
	assign = make([]int, nprocs)
	hosted = make([][]int, nservers)
	for p := 0; p < nprocs; p++ {
		k := p * nservers / nprocs
		assign[p] = k
		hosted[k] = append(hosted[k], p)
	}
	return assign, hosted
}
