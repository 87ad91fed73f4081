package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// pinnedLog is a two-record log written out byte by byte: the on-disk
// framing every journal and registry WAL in the repository uses.
var pinnedLog = []byte{
	3, 0, 0, 0, // body length
	0xc2, 0x41, 0x24, 0x35, // crc32 IEEE of "abc"
	'a', 'b', 'c',
	9, 0, 0, 0,
	0xae, 0xef, 0xa4, 0x8e, // crc32 IEEE of `{"seq":2}`
	'{', '"', 's', 'e', 'q', '"', ':', '2', '}',
}

const testMax = 1 << 10

// openAll opens the log at path and returns it with copies of every
// record replay delivered.
func openAll(t *testing.T, path string) (*Log, [][]byte) {
	t.Helper()
	got := [][]byte{}
	l, err := Open(path, testMax, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, got
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// Append writes exactly the pinned framing, and replay reads it back.
func TestLogFramingPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pinned.wal")
	l, _ := openAll(t, path)
	for _, rec := range []string{"abc", `{"seq":2}`} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinnedLog) {
		t.Fatalf("appended bytes\n%v\nwant\n%v", got, pinnedLog)
	}
	l, recs := openAll(t, path)
	l.Close()
	if want := [][]byte{[]byte("abc"), []byte(`{"seq":2}`)}; !reflect.DeepEqual(recs, want) {
		t.Fatalf("replayed %q, want %q", recs, want)
	}
}

// TestLogCrashPoints enumerates every crash a five-record log can suffer:
// truncation at every byte offset and every single-bit flip. Replay must
// yield exactly the intact prefix — the records wholly before the damage
// — and cut the file back to it, and a record appended after reopening
// must be visible on the next replay.
func TestLogCrashPoints(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	var recs [][]byte
	for _, n := range []int{1, 9, 40, 3, 17} {
		rec := make([]byte, n)
		rng.Read(rec)
		recs = append(recs, rec)
	}
	orig := filepath.Join(dir, "orig.wal")
	l, _ := openAll(t, orig)
	ends := []int{0} // ends[k]: byte length of the first k records
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+headerSize+len(rec))
	}
	l.Close()
	full, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != ends[len(recs)] {
		t.Fatalf("log is %d bytes, want %d", len(full), ends[len(recs)])
	}
	// frameOf is the index of the record whose frame holds byte i.
	frameOf := func(i int) int {
		k := 0
		for ends[k+1] <= i {
			k++
		}
		return k
	}

	path := filepath.Join(dir, "crash.wal")
	extra := []byte("appended after recovery")
	check := func(name string, data []byte, intact int) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := openAll(t, path)
		if !reflect.DeepEqual(got, recs[:intact]) {
			l.Close()
			t.Fatalf("%s: replayed %d records, want the intact prefix of %d", name, len(got), intact)
		}
		if size := fileSize(t, path); size != int64(ends[intact]) {
			l.Close()
			t.Fatalf("%s: file is %d bytes after open, want it cut to %d", name, size, ends[intact])
		}
		if err := l.Append(extra); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		l.Close()
		l, got = openAll(t, path)
		l.Close()
		want := append(append([][]byte(nil), recs[:intact]...), extra)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after recovery + append, replayed %d records, want %d", name, len(got), len(want))
		}
	}

	for cut := 0; cut <= len(full); cut++ {
		intact := 0
		for intact < len(recs) && ends[intact+1] <= cut {
			intact++
		}
		check(fmt.Sprintf("truncate at %d", cut), full[:cut], intact)
	}
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), full...)
			data[i] ^= 1 << bit
			check(fmt.Sprintf("flip byte %d bit %d", i, bit), data, frameOf(i))
		}
	}
	// A record the caller cannot decode ends replay like a torn one.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	seen := 0
	l, err = Open(path, testMax, func(rec []byte) error {
		if seen == 2 {
			return errors.New("undecodable")
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if size := fileSize(t, path); size != int64(ends[2]) {
		t.Fatalf("undecodable third record: file is %d bytes, want it cut to %d", size, ends[2])
	}
}

// Append refuses a record replay would read as a torn tail — dropping it
// and everything after it — and the log stays usable.
func TestLogRefusesUnreplayableRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bound.wal")
	l, _ := openAll(t, path)
	defer l.Close()
	for _, rec := range [][]byte{nil, make([]byte, testMax+1)} {
		if err := l.Append(rec); err == nil {
			t.Fatalf("%d-byte record accepted", len(rec))
		}
	}
	if err := l.Append(make([]byte, testMax)); err != nil {
		t.Fatalf("record at the bound refused: %v", err)
	}
	if size := fileSize(t, path); size != headerSize+testMax {
		t.Fatalf("log is %d bytes, want one %d-byte frame", size, headerSize+testMax)
	}
}

// A failed WriteFile leaves the old file in place and no temp file.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFile(path, write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the encoder's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "state"), write("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if err := WriteFile(path, write("new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file is %q, want %q", got, "new")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in %s, want only the target file", len(entries), dir)
	}
}

// FuzzLogReplay opens arbitrary bytes as a log. It must never panic,
// never allocate for a length prefix beyond the record bound, and cut the
// file only at the frame boundary just past the last record it replayed.
func FuzzLogReplay(f *testing.F) {
	f.Add(pinnedLog)
	f.Add(pinnedLog[:len(pinnedLog)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var good int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := Open(path, testMax, func(rec []byte) error {
			if len(rec) == 0 || len(rec) > testMax {
				t.Errorf("replayed a %d-byte record outside (0, %d]", len(rec), testMax)
			}
			good += headerSize + int64(len(rec))
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		// Replay buffers grow only to frames present in the file; the
		// slack covers the reader, the file handle and the runtime.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(data))+64<<10 {
			t.Fatalf("replaying %d bytes allocated %d", len(data), alloc)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != good || !bytes.Equal(got, data[:good]) {
			t.Fatalf("file cut to %d bytes, want the %d-byte replayed prefix", len(got), good)
		}
	})
}
