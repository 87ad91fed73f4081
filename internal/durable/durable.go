// Package durable holds the crash-safe storage primitives every durable
// component shares: a crc-framed append-only log (the job registry's
// WAL) and an atomic whole-file replace (registry snapshots, SCF
// checkpoints). Record and file encodings stay with their owners; this
// package owns only the framing, the fsyncs and the torn-tail rules.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log framing, per record (little-endian):
//
//	[4B body length][4B crc32 (IEEE) of body][body]
//
// A crash mid-append can leave a torn tail: a partial header or body, a
// zero or out-of-bound length, or a body whose checksum fails. Everything
// before the tear was synced and acknowledged; the torn record never was.
// Open therefore replays the intact prefix and cuts the file back to it
// before appending, so records acknowledged after a recovery can never
// land behind the tear, where the next replay would not reach them.
const headerSize = 8

// Log is an append-only write-ahead log. It carries no locking: callers
// serialize Append, Reset and Close under their own state mutex.
type Log struct {
	path   string
	f      *os.File
	max    int    // largest body replay accepts
	off    int64  // file offset past the last fully appended record
	failed bool   // a failed append could not be rolled back
	buf    []byte // reusable frame buffer
}

// Open opens the log at path, creating it if absent, and passes every
// intact record body to replay in order. rec is only valid during the
// call. A replay error marks the record undecodable: replay stops there
// exactly as at a torn record. Records longer than maxRecord are treated
// as torn, so a corrupt length never allocates more than maxRecord bytes.
// The file is then cut back to the intact prefix and opened for Append.
func Open(path string, maxRecord int, replay func(rec []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	good, err := replayFrames(f, maxRecord, replay)
	if err == nil {
		err = f.Truncate(good) // cut a torn tail; no-op on an intact log
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	return &Log{path: path, f: f, max: maxRecord, off: good}, nil
}

// replayFrames streams the intact frames of r to fn and returns the byte
// length of the intact prefix. Only a read error other than end of file
// is returned: truncating on it could destroy acknowledged records.
func replayFrames(r io.Reader, maxRecord int, fn func([]byte) error) (good int64, err error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	var rec []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good, eofIsTear(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		if n == 0 || uint64(n) > uint64(maxRecord) {
			return good, nil
		}
		if cap(rec) < int(n) {
			rec = make([]byte, n)
		}
		rec = rec[:n]
		if _, err := io.ReadFull(br, rec); err != nil {
			return good, eofIsTear(err)
		}
		if crc32.ChecksumIEEE(rec) != binary.LittleEndian.Uint32(hdr[4:]) {
			return good, nil
		}
		if fn(rec) != nil {
			return good, nil
		}
		good += headerSize + int64(n)
	}
}

// eofIsTear maps a clean or mid-frame end of file to the end of the
// intact log and passes any other read error through.
func eofIsTear(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// Append frames rec, writes it and fsyncs it: the record is durable when
// Append returns nil, and only then may the caller act on it. A failed
// append must not leave partial bytes mid-log (the next record would land
// behind them), so the file is cut back to its pre-append offset; if even
// that fails, the log is marked damaged and every later Append is
// rejected until a successful Reset. Empty records and records longer
// than Open's maxRecord are refused.
func (l *Log) Append(rec []byte) error {
	if l.failed {
		return fmt.Errorf("durable: log %s damaged by an earlier failed append", l.path)
	}
	if len(rec) == 0 || len(rec) > l.max {
		// Replay would read such a frame as a torn tail and drop it along
		// with every record after it.
		return fmt.Errorf("durable: %d-byte record outside (0, %d] for %s", len(rec), l.max, l.path)
	}
	l.buf = binary.LittleEndian.AppendUint32(l.buf[:0], uint32(len(rec)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.ChecksumIEEE(rec))
	l.buf = append(l.buf, rec...)
	_, err := l.f.Write(l.buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.off); terr != nil {
			l.failed = true
			return fmt.Errorf("durable: log %s damaged by a failed append: %w", l.path, err)
		}
		return fmt.Errorf("durable: append to %s: %w", l.path, err)
	}
	l.off += int64(len(l.buf))
	return nil
}

// Reset empties the log, once a snapshot covers everything it held. A
// successful Reset clears the damage mark: an empty log has nothing to
// append past. A failed one sets it.
func (l *Log) Reset() error {
	err := l.f.Truncate(0)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.failed = true
		return fmt.Errorf("durable: reset %s: %w", l.path, err)
	}
	l.off, l.failed = 0, false
	return nil
}

// Close releases the log file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile replaces path atomically and durably with what encode writes:
// a temp file in path's directory is written, fsynced, renamed over path,
// and the directory is fsynced. A crash at any point leaves either the old
// file or the new one, never a torn mix. The temp file has a unique name,
// so concurrent writers to one path never share it, and it is removed on
// every error path.
func WriteFile(path string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = encode(f)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide the file from other readers
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
