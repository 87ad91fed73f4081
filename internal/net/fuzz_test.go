package netga

import (
	"bytes"
	"math"
	"testing"

	"gtfock/internal/dist"
)

// fuzzRequests are seed requests covering every op, including a valid
// Hello layout, so the fuzzer starts from frames the server accepts.
func fuzzRequests() []request {
	g := dist.UniformGrid2D(2, 2, 6, 6)
	return []request{
		{Op: opHello, Session: 1, ReqID: 1, R0: 6, C0: 6, Msg: layoutMsg(g)},
		{Op: opGet, Session: 1, ReqID: 2, Proc: 0, R0: 0, R1: 3, C0: 0, C1: 3},
		{Op: opPut, Session: 1, ReqID: 3, Proc: -1, R0: 0, R1: 1, C0: 0, C1: 2, Data: []float64{1, 2}},
		{Op: opAcc, Array: 1, Session: 1, ReqID: 4, Token: 9, R0: 3, R1: 4, C0: 3, C1: 4, Alpha: 0.5, Data: []float64{math.Pi}},
		{Op: opCheckpoint, Session: 1, ReqID: 5},
		{Op: opPutBlob, Session: 1, ReqID: 6, Token: 77, Data: []float64{-1, 0}},
		{Op: opGetBlob, Session: 1, ReqID: 7, Token: 77},
		{Op: opBye, Session: 1, ReqID: 8},
		{Op: opPing, ReqID: 9},
	}
}

// FuzzDecodeRequest: no input panics the request decoder, and a frame
// that decodes re-encodes to the identical bytes (the format has exactly
// one encoding per request), which decode again to the same request.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range fuzzRequests() {
		f.Add(encodeRequest(nil, &r))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var r request
		if decodeRequest(body, &r) != nil {
			return
		}
		enc := encodeRequest(nil, &r)
		if !bytes.Equal(enc, body) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", body, enc)
		}
		var back request
		if err := decodeRequest(enc, &back); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !bytes.Equal(encodeRequest(nil, &back), enc) {
			t.Fatal("decode -> encode -> decode is not a fixed point")
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the client's side of the
// wire.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []response{
		{ReqID: 1},
		{Status: statusErr, ReqID: 2, Msg: blobMissMsg},
		{Dup: 1, ReqID: 3, Data: []float64{1, math.Inf(-1), math.NaN()}},
	} {
		f.Add(encodeResponse(nil, &r))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var r response
		if decodeResponse(body, &r) != nil {
			return
		}
		enc := encodeResponse(nil, &r)
		if !bytes.Equal(enc, body) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", body, enc)
		}
		var back response
		if err := decodeResponse(enc, &back); err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !bytes.Equal(encodeResponse(nil, &back), enc) {
			t.Fatal("decode -> encode -> decode is not a fixed point")
		}
	})
}

// FuzzServerApply drives arbitrary decoded requests through a live
// server's handler while a second session holds known state. Every
// request must be answered (OK or an error status, matched by ReqID)
// rather than panic, and nothing aimed at another session may change the
// bystander's arrays or blobs.
func FuzzServerApply(f *testing.F) {
	const bystander = 2
	for _, r := range fuzzRequests() {
		f.Add(encodeRequest(nil, &r))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req request
		if decodeRequest(body, &req) != nil {
			return
		}
		if req.Session == bystander {
			req.Session = 1
		}
		// A small budget bounds what one hostile Hello may allocate.
		s, err := NewMultiServer(2, 0, 4, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		g := dist.UniformGrid2D(2, 2, 6, 6)
		for _, sess := range []uint64{1, bystander} {
			hello := request{Op: opHello, Session: sess, R0: 6, C0: 6, Msg: layoutMsg(g)}
			if resp := s.handle(&hello); resp.Status != statusOK {
				t.Fatalf("seed hello for session %d: %s", sess, resp.Msg)
			}
		}
		by := s.sessions[bystander]
		for a := range by.arrays {
			for i := range by.arrays[a] {
				by.arrays[a][i] = float64(a*100 + i)
			}
		}
		by.blobs[5] = []float64{5}
		before := [numArrays][]float64{}
		for a := range by.arrays {
			before[a] = append([]float64(nil), by.arrays[a]...)
		}

		resp := s.handle(&req)
		if resp.ReqID != req.ReqID {
			t.Fatalf("response for req %d, want %d", resp.ReqID, req.ReqID)
		}
		if resp.Status != statusOK && resp.Status != statusErr {
			t.Fatalf("status %d", resp.Status)
		}
		if s.sessions[bystander] != by {
			t.Fatal("bystander session replaced or released")
		}
		for a := range by.arrays {
			for i, v := range by.arrays[a] {
				if math.Float64bits(v) != math.Float64bits(before[a][i]) {
					t.Fatalf("bystander array %d[%d] changed: %g -> %g", a, i, before[a][i], v)
				}
			}
		}
		if len(by.blobs) != 1 || by.blobs[5][0] != 5 {
			t.Fatalf("bystander blobs changed: %v", by.blobs)
		}
		if st := s.Stats(); st.MemUsed < 0 || st.MemUsed > 1<<16 {
			t.Fatalf("memory accounting %d outside [0, budget]", st.MemUsed)
		}
	})
}
