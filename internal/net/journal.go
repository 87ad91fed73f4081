package netga

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gtfock/internal/durable"
)

// Shard durability: a write-ahead journal of applied state mutations plus
// periodic atomic snapshots. Every mutation (Put, Acc with its idempotency
// token, session install, dedup checkpoint, promotion) is appended — and
// fsynced — to the journal *before* it becomes visible to dedup lookups or
// is acknowledged, so the journal is the ground truth of what a crashed
// server had applied. A restarted server loads the latest snapshot and
// replays the journal suffix (records with seq > snapshot.Seq), landing in
// a state equivalent to the moment of the crash: same shard arrays, same
// session, same dedup sets — so exactly-once accumulation survives the
// restart.
//
// The journal is a durable.Log, which owns the crc framing, the fsyncs
// and the torn-tail cut; each record body is encodeRecord's
// [8B seq][encoded request], so the on-disk frame is
//
//	[4B total length][4B crc of seq+body][8B seq][encoded request]

// journalFile and snapshotFile are the fixed names inside a shard's
// durability directory.
const (
	journalFile  = "journal.wal"
	snapshotFile = "snapshot.gob"
)

// snapshotState is the gob-encoded point-in-time state of one shard
// server: arrays, session, fence epoch, role, and both dedup generations.
// Seq is the journal position the snapshot covers — replay skips records
// with seq <= Seq, which is also what makes snapshot-then-truncate
// crash-safe in either order.
type snapshotState struct {
	Version    int
	Session    uint64
	Epoch      uint64 // shard fence epoch
	PGen       uint64 // placement generation (0 = static placement)
	Standby    bool
	Rows, Cols int
	Seq        uint64
	Arrays     [numArrays][]float64
	SeenCur    []uint64
	SeenPrev   []uint64
	Checkpoint uint64 // dedup generation counter
	Hosts      []int  // procs hosted at save time (elastic placement moves them)
	Frozen     []int  // procs frozen mid-migration at save time
}

const snapshotVersion = 2

// saveSnapshot writes st atomically and durably (durable.WriteFile): a
// crash at any point leaves either the old snapshot or the new one.
func saveSnapshot(dir string, st *snapshotState) error {
	return durable.WriteFile(filepath.Join(dir, snapshotFile), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(st)
	})
}

// loadSnapshot reads the shard snapshot, if any. (nil, nil) means no
// snapshot exists — recovery then replays the journal from scratch.
func loadSnapshot(dir string) (*snapshotState, error) {
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st snapshotState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("netga: corrupt snapshot in %s: %w", dir, err)
	}
	if st.Version != snapshotVersion {
		return nil, fmt.Errorf("netga: snapshot version %d, want %d", st.Version, snapshotVersion)
	}
	return &st, nil
}
