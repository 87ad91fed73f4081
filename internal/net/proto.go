// Package netga is the TCP network transport behind dist.Backend: the D
// and F global arrays live as shards in fockd server processes, and every
// one-sided Get/Put/Acc is a length-prefixed framed RPC with per-op
// deadlines, bounded capped jittered retry, idempotency tokens (a
// retried or duplicated Acc is applied exactly once server-side), and
// automatic reconnection. core.Build runs unchanged over this
// transport; an op that fails past the retry budget, or that a server
// rejects, fails the build, and its caller retries the build under a
// fresh session (see DESIGN.md, "Network transport and degradation
// ladder").
package netga

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire operations.
const (
	opHello      uint8 = iota + 1 // install or validate a session on a fresh conn
	opGet                         // read one single-owner patch
	opPut                         // overwrite one single-owner patch (driver load)
	opAcc                         // accumulate alpha*data into one patch, token-deduped
	opPing                        // liveness probe
	opCheckpoint                  // session checkpoint: advance the dedup eviction generation
	opPutBlob                     // store a spill blob (key in Token, payload in Data); first write wins
	opGetBlob                     // fetch a spill blob by Token; statusErr blobMissMsg = miss
	opBye                         // release this request's session: its arrays, dedup state and blobs
)

// unknownSessionMsg prefixes the rejection of a data op whose session the
// server does not hold: it restarted, or the session was released. The
// client notes it (Client.SessionLost) so its caller can retry under a
// fresh session.
const unknownSessionMsg = "netga: unknown session"

// blobMissMsg marks an opGetBlob statusErr answer as a plain cache miss
// (recompute), as opposed to a malformed request.
const blobMissMsg = "blob not found"

// Response statuses.
const (
	statusOK  uint8 = iota
	statusErr       // server rejected the request; not retryable
)

// maxFrame bounds a frame body so a corrupt length prefix cannot ask for
// an absurd allocation.
const maxFrame = 64 << 20

// arrays per session: 0 = D (density, read-mostly), 1 = F (Fock
// accumulator, Acc target).
const numArrays = 2

// request is one client->server frame. Every request carries the client
// session so a reconnected conn needs no re-handshake; Hello installs a
// session and validates geometry via R0=Rows, C0=Cols, with the grid
// layout as JSON in Msg.
type request struct {
	Op             uint8
	Array          uint8
	Session        uint64
	ReqID          uint64
	Token          uint64 // Acc idempotency token (0 = no dedup); blob key
	Proc           int32  // issuing rank; -1 for driver-side ops
	R0, R1, C0, C1 int32
	Alpha          float64
	Msg            string    // Hello grid layout (JSON)
	Data           []float64 // patch or blob payload
}

// response is one server->client frame, matched to its request by ReqID.
type response struct {
	Status uint8
	Dup    uint8 // Acc was a token-dedup hit: acknowledged, not re-applied
	ReqID  uint64
	Msg    string
	Data   []float64
}

// reqHeaderLen is the fixed-size prefix of an encoded request:
// op+array (2) + session+reqid+token (24) + proc+4 coords (20) + alpha
// (8) + msg len (2) + data count (4).
const reqHeaderLen = 2 + 24 + 20 + 8 + 2 + 4

func encodeRequest(buf []byte, r *request) []byte {
	buf = buf[:0]
	buf = append(buf, r.Op, r.Array)
	buf = binary.LittleEndian.AppendUint64(buf, r.Session)
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	buf = binary.LittleEndian.AppendUint64(buf, r.Token)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Proc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.R0))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.R1))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.C0))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.C1))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Alpha))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Msg)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
	buf = append(buf, r.Msg...)
	return appendFloats(buf, r.Data)
}

func decodeRequest(body []byte, r *request) error {
	if len(body) < reqHeaderLen {
		return fmt.Errorf("netga: short request frame (%d bytes)", len(body))
	}
	r.Op, r.Array = body[0], body[1]
	r.Session = binary.LittleEndian.Uint64(body[2:])
	r.ReqID = binary.LittleEndian.Uint64(body[10:])
	r.Token = binary.LittleEndian.Uint64(body[18:])
	r.Proc = int32(binary.LittleEndian.Uint32(body[26:]))
	r.R0 = int32(binary.LittleEndian.Uint32(body[30:]))
	r.R1 = int32(binary.LittleEndian.Uint32(body[34:]))
	r.C0 = int32(binary.LittleEndian.Uint32(body[38:]))
	r.C1 = int32(binary.LittleEndian.Uint32(body[42:]))
	r.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(body[46:]))
	ml := int(binary.LittleEndian.Uint16(body[54:]))
	n := int(binary.LittleEndian.Uint32(body[56:]))
	if len(body) != reqHeaderLen+ml+8*n {
		return fmt.Errorf("netga: request frame length %d does not match msg %d + %d data values", len(body), ml, n)
	}
	r.Msg = string(body[reqHeaderLen : reqHeaderLen+ml])
	r.Data = decodeFloats(body[reqHeaderLen+ml:], n)
	return nil
}

// respHeaderLen: status+dup (2) + reqid (8) + msg len (2) + data count (4).
const respHeaderLen = 2 + 8 + 2 + 4

func encodeResponse(buf []byte, r *response) []byte {
	buf = buf[:0]
	buf = append(buf, r.Status, r.Dup)
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Msg)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
	buf = append(buf, r.Msg...)
	return appendFloats(buf, r.Data)
}

func decodeResponse(body []byte, r *response) error {
	if len(body) < respHeaderLen {
		return fmt.Errorf("netga: short response frame (%d bytes)", len(body))
	}
	r.Status, r.Dup = body[0], body[1]
	r.ReqID = binary.LittleEndian.Uint64(body[2:])
	ml := int(binary.LittleEndian.Uint16(body[10:]))
	n := int(binary.LittleEndian.Uint32(body[12:]))
	if len(body) != respHeaderLen+ml+8*n {
		return fmt.Errorf("netga: response frame length %d does not match msg %d + %d data values", len(body), ml, n)
	}
	r.Msg = string(body[respHeaderLen : respHeaderLen+ml])
	r.Data = decodeFloats(body[respHeaderLen+ml:], n)
	return nil
}

func appendFloats(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeFloats(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// writeFrame writes a uint32 length prefix followed by body.
func writeFrame(w io.Writer, body []byte) error {
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(len(body)))
	if _, err := w.Write(pfx[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(pfx[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netga: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
