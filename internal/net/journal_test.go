package netga

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gtfock/internal/dist"
)

func testRequests(seed int64, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	reqs := []*request{{Op: opHello, Session: 42, R0: 4, C0: 4}}
	token := uint64(0)
	var issued []uint64
	for len(reqs) < n {
		switch rng.Intn(10) {
		case 0: // session checkpoint: advances the dedup eviction generation
			reqs = append(reqs, &request{Op: opCheckpoint, Session: 42})
		case 1: // duplicate delivery of an already-applied Acc
			if len(issued) > 0 {
				tok := issued[rng.Intn(len(issued))]
				reqs = append(reqs, &request{
					Op: opAcc, Array: 1, Session: 42, Token: tok, Alpha: 1,
					R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{999},
				})
				break
			}
			fallthrough
		case 2, 3: // Put of a random patch
			r0, c0 := int32(rng.Intn(3)), int32(rng.Intn(3))
			reqs = append(reqs, &request{
				Op: opPut, Array: uint8(rng.Intn(2)), Session: 42,
				R0: r0, R1: r0 + 2, C0: c0, C1: c0 + 2,
				Data: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			})
		default: // fresh tokened Acc
			token++
			issued = append(issued, token)
			r0, c0 := int32(rng.Intn(3)), int32(rng.Intn(3))
			reqs = append(reqs, &request{
				Op: opAcc, Array: uint8(rng.Intn(2)), Session: 42, Token: token,
				Alpha: rng.NormFloat64(),
				R0:    r0, R1: r0 + 2, C0: c0, C1: c0 + 2,
				Data: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			})
		}
	}
	return reqs
}

// driveServer recovers a durable server from dir and pushes reqs through
// the real request path (journal + dedup + apply), without a listener.
func driveServer(t *testing.T, dir string, reqs []*request) *Server {
	t.Helper()
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	s := NewServer(grid, []int{0}, WithDurability(dir, -1))
	if err := s.recover(); err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	for i, r := range reqs {
		rc := *r // handle may be retried with fresh ReqIDs in production; copy for safety
		if resp := s.handle(&rc); resp.Status != statusOK {
			t.Fatalf("request %d (%+v) rejected: %s", i, r, resp.Msg)
		}
	}
	return s
}

// stateOf captures the durability-relevant server state for comparison.
type serverState struct {
	Session  uint64
	Seq      uint64
	CkptGen  uint64
	Arrays   [numArrays][]float64
	SeenCur  map[uint64]bool
	SeenPrev map[uint64]bool
}

func stateOf(s *Server) serverState {
	st := serverState{
		Session: s.session, Seq: s.seq, CkptGen: s.ckptGen,
		SeenCur: s.seenCur, SeenPrev: s.seenPrev,
	}
	for a := range s.arrays {
		st.Arrays[a] = s.arrays[a]
	}
	return st
}

// TestJournalPrefixSuffixProperty is the replay property test: for every
// prefix of a mutation sequence, crashing after the prefix (with or
// without a snapshot covering it) and replaying the suffix on the
// recovered server yields byte-identical shard arrays and dedup sets to
// applying the whole sequence on one server. Float comparison is exact:
// journal replay preserves application order, so there is no rounding
// slack to grant.
func TestJournalPrefixSuffixProperty(t *testing.T) {
	reqs := testRequests(7, 40)

	fullDir := t.TempDir()
	full := driveServer(t, fullDir, reqs)
	defer full.jr.Close()
	want := stateOf(full)

	for k := 0; k <= len(reqs); k += 3 {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("k%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		a := driveServer(t, dir, reqs[:k])
		if k%2 == 0 {
			// Even prefixes snapshot before the crash; odd ones crash with
			// journal only. Both must recover identically.
			a.mu.Lock()
			a.snapshotLocked()
			a.mu.Unlock()
		}
		a.jr.Close() // crash: nothing flushed beyond what append synced

		b := driveServer(t, dir, reqs[k:])
		got := stateOf(b)
		b.jr.Close()
		if got.Session != want.Session || got.Seq != want.Seq || got.CkptGen != want.CkptGen {
			t.Fatalf("prefix %d: state (session=%d seq=%d gen=%d), want (%d %d %d)",
				k, got.Session, got.Seq, got.CkptGen, want.Session, want.Seq, want.CkptGen)
		}
		for arr := range got.Arrays {
			if !reflect.DeepEqual(got.Arrays[arr], want.Arrays[arr]) {
				t.Fatalf("prefix %d: array %d differs after recovery+suffix", k, arr)
			}
		}
		if !reflect.DeepEqual(got.SeenCur, want.SeenCur) || !reflect.DeepEqual(got.SeenPrev, want.SeenPrev) {
			t.Fatalf("prefix %d: dedup sets differ: got %d/%d tokens, want %d/%d",
				k, len(got.SeenCur), len(got.SeenPrev), len(want.SeenCur), len(want.SeenPrev))
		}
	}
}

// replayedRecords recovers a fresh durable server from dir and reports how
// many journal records it replayed.
func replayedRecords(t *testing.T, dir string) int {
	t.Helper()
	s := NewServer(dist.UniformGrid2D(1, 1, 4, 4), []int{0}, WithDurability(dir, -1))
	if err := s.recover(); err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	s.jr.Close()
	return int(s.replayed.Load())
}

// A torn tail — a partial record from a crash mid-append, or a corrupted
// one — terminates replay at the last intact record instead of erroring.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	reqs := testRequests(3, 6)
	driveServer(t, dir, reqs).jr.Close()
	// The session install snapshots, so every record after it replays.
	n0 := len(reqs) - 1
	if got := replayedRecords(t, dir); got != n0 {
		t.Fatalf("intact journal replayed %d records, want %d", got, n0)
	}

	// Tear off the last few bytes: the final record is lost, the rest
	// replays.
	path := filepath.Join(dir, journalFile)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayedRecords(t, dir); got != n0-1 {
		t.Fatalf("torn journal replayed %d records, want %d", got, n0-1)
	}

	// Corrupt a byte inside the final (intact) record: crc catches it and
	// replay stops one record earlier.
	blob2 := append([]byte(nil), blob...)
	blob2[len(blob2)-1] ^= 0xff
	if err := os.WriteFile(path, blob2, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayedRecords(t, dir); got != n0-1 {
		t.Fatalf("corrupt-tail journal replayed %d records, want %d", got, n0-1)
	}
}

// A torn tail must be cut off at recovery: records appended by the
// recovered server would otherwise land behind the tear, where replay
// never reaches them — acked mutations silently dropped on the next
// restart.
func TestJournalTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	driveServer(t, dir, testRequests(11, 8)).jr.Close()
	n0 := replayedRecords(t, dir)
	path := filepath.Join(dir, journalFile)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Recover (losing the torn final record) and append one fresh record.
	b := driveServer(t, dir, []*request{{
		Op: opAcc, Array: 0, Session: 42, Token: 900001, Alpha: 1,
		R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{1},
	}})
	b.jr.Close()
	if got, want := replayedRecords(t, dir), n0; got != want {
		t.Fatalf("replay after torn-tail recovery + 1 append sees %d records, want %d", got, want)
	}
}

// An append that fails and cannot be rolled back must poison the journal:
// writing further records past the damage would hide them from replay
// while the server acks them as durable.
func TestJournalAppendFailureMarksDamage(t *testing.T) {
	dir := t.TempDir()
	reqs := testRequests(13, 4)
	s := driveServer(t, dir, reqs)
	s.jr.Close() // the disk goes away mid-run
	acc := func(token uint64) response {
		return s.handle(&request{
			Op: opAcc, Array: 0, Session: 42, Token: token, Alpha: 1,
			R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{1},
		})
	}
	if resp := acc(900001); resp.Status == statusOK {
		t.Fatal("append on a dead file acknowledged")
	}
	if resp := acc(900002); resp.Status == statusOK || !strings.Contains(resp.Msg, "damaged") {
		t.Fatalf("append past known damage: status %d %q, want a damaged-journal rejection", resp.Status, resp.Msg)
	}
	// Everything appended before the failure still replays.
	if got, want := replayedRecords(t, dir), len(reqs)-1; got != want {
		t.Fatalf("replay after damage: %d records, want %d intact records", got, want)
	}
}

// TestJournalOldFramingRecovers pins the on-disk journal format: a
// journal.wal assembled by hand in the [len][crc32][seq][request]
// framing, ending in a torn record, recovers to exactly the state its
// intact records describe, and recovery cuts the file back to them.
func TestJournalOldFramingRecovers(t *testing.T) {
	dir := t.TempDir()
	var wal []byte
	frame := func(seq uint64, req *request) {
		rec := binary.LittleEndian.AppendUint64(nil, seq)
		rec = append(rec, encodeRequest(nil, req)...)
		wal = binary.LittleEndian.AppendUint32(wal, uint32(len(rec)))
		wal = binary.LittleEndian.AppendUint32(wal, crc32.ChecksumIEEE(rec))
		wal = append(wal, rec...)
	}
	frame(1, &request{Op: opHello, Session: 42, R0: 4, C0: 4})
	frame(2, &request{Op: opPut, Array: 0, Session: 42, R0: 0, R1: 2, C0: 0, C1: 2, Data: []float64{1, 2, 3, 4}})
	frame(3, &request{Op: opAcc, Array: 0, Session: 42, Token: 7, Alpha: 2, R0: 1, R1: 2, C0: 1, C1: 2, Data: []float64{10}})
	frame(4, &request{Op: opAcc, Array: 0, Session: 42, Token: 7, Alpha: 2, R0: 1, R1: 2, C0: 1, C1: 2, Data: []float64{10}})
	intact := len(wal)
	frame(5, &request{Op: opAcc, Array: 0, Session: 42, Token: 8, Alpha: 1, R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{100}})
	wal = wal[:len(wal)-3] // crash mid-append
	path := filepath.Join(dir, journalFile)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewServer(dist.UniformGrid2D(1, 1, 4, 4), []int{0}, WithDurability(dir, -1))
	if err := s.recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s.jr.Close()
	if s.session != 42 || s.seq != 4 || s.replayed.Load() != 4 {
		t.Fatalf("recovered session %d seq %d replayed %d, want 42 4 4", s.session, s.seq, s.replayed.Load())
	}
	want := make([]float64, 16)
	want[0], want[1], want[4], want[5] = 1, 2, 3, 4+2*10 // the duplicate token 7 applies once
	if !reflect.DeepEqual(s.arrays[0], want) {
		t.Fatalf("recovered array %v, want %v", s.arrays[0], want)
	}
	if !reflect.DeepEqual(s.seenCur, map[uint64]bool{7: true}) {
		t.Fatalf("recovered dedup set %v, want {7}", s.seenCur)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(intact) {
		t.Fatalf("journal is %d bytes, want it cut back to its intact %d", fi.Size(), intact)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if st, err := loadSnapshot(dir); st != nil || err != nil {
		t.Fatalf("missing snapshot: st=%v err=%v, want nil/nil", st, err)
	}
	st := &snapshotState{
		Version: snapshotVersion, Session: 9, Epoch: 3, Standby: true,
		Rows: 2, Cols: 2, Seq: 55,
		SeenCur: []uint64{1, 2}, SeenPrev: []uint64{3}, Checkpoint: 4,
	}
	st.Arrays[0] = []float64{1, 2, 3, 4}
	st.Arrays[1] = []float64{5, 6, 7, 8}
	if err := saveSnapshot(dir, st); err != nil {
		t.Fatal(err)
	}
	back, err := loadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("snapshot round trip: got %+v, want %+v", back, st)
	}
	// A torn snapshot (crash mid-write before the rename would have
	// happened) must not shadow the good one: the temp file is invisible.
	if err := os.WriteFile(filepath.Join(dir, snapshotFile+".tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err = loadSnapshot(dir); err != nil || back == nil {
		t.Fatalf("snapshot with stale temp file: %v", err)
	}
}
