// Package durable is the control plane's write-ahead log + snapshot
// store. It is deliberately op-agnostic: records are opaque
// (op byte, data) pairs under a monotonically increasing sequence
// number, so the package owns durability mechanics — framing, CRC,
// fsync batching, snapshot rotation, torn-tail recovery — while the
// caller (internal/controlplane) owns the state machine that the
// records replay into.
//
// The on-disk framing follows the wire codec's conventions
// (internal/controlplane/wire): a uvarint length prefix, every count
// bounds-checked before it allocates, and decode errors that are
// errors, never panics. Each record is
//
//	uvarint(len(payload)) | payload | crc32c(payload), little-endian
//	payload = version(1) | op(1) | uvarint(seq) | data
//
// Append is group-committed: concurrent appends that land while an
// fsync is in flight are batched into the next one, so the sync cost
// amortizes across however many mutations arrive together. An Append
// only returns once its record is fsync-durable — the caller may ack
// its client immediately after.
//
// Recovery (Open) is torn-tail tolerant and strict about everything
// else: a final record cut off mid-write (the crash the log exists
// for) is silently discarded and the file truncated back to the last
// durable record, while a mid-file CRC mismatch, an oversized length
// or a sequence break is a typed *CorruptError carrying the byte
// offset — corruption is reported, never replayed and never panics.
// Replaying the same log twice yields the same records (Open mutates
// nothing but the torn tail).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

const (
	// MaxRecord bounds one record's payload, like wire.MaxFrame bounds
	// a frame: a corrupt length prefix must not become an allocation.
	MaxRecord = 1 << 20

	recordVersion = 1

	walName     = "wal.log"
	snapName    = "snapshot.db"
	snapTmpName = "snapshot.tmp"
)

// castagnoli is the CRC-32C table (hardware-accelerated on the
// platforms that matter).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptJournal is the sentinel every corruption failure wraps;
// errors.Is(err, ErrCorruptJournal) distinguishes "the journal is
// damaged, refuse to serve" from I/O errors.
var ErrCorruptJournal = errors.New("durable: corrupt journal")

// CorruptError reports unrecoverable journal damage: which file, the
// byte offset of the first bad record, and why it was rejected. A torn
// final record is NOT corruption — it is truncated away silently.
type CorruptError struct {
	File   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: corrupt journal: %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorruptJournal }

// Record is one replayed journal entry. Data is owned by the caller
// (copied out of the file buffer at Open).
type Record struct {
	Seq  uint64
	Op   byte
	Data []byte
}

// Options configures Open. It has no fields: appends that land while
// an fsync is in flight already share the next one, so there is no
// gather window to tune. The type stays so that callers passing
// Options{} keep compiling.
type Options struct{}

// commitGroup is one fsync batch: every Append that joined it blocks
// on done and shares err.
type commitGroup struct {
	done chan struct{}
	err  error
}

// Log is an open journal. Append/WriteSnapshot/Close may be called
// concurrently, except that WriteSnapshot requires the caller to
// quiesce Appends (the control plane holds its membership lock across
// both, so every mutation is either before the snapshot and in it, or
// after it and in the fresh WAL).
type Log struct {
	dir string

	// gate orders appends against quiesce: an Append holds it shared
	// while it buffers a record, quiesce holds it exclusively. Appends
	// that keep arriving therefore cannot starve a snapshot or Close.
	gate sync.RWMutex

	// Recovered state, immutable after Open.
	snapshot    []byte
	snapshotSeq uint64
	entries     []Record

	mu       sync.Mutex
	f        *os.File
	buf      []byte // encoded records awaiting the next commit
	scratch  []byte // recycled buf backing
	nextSeq  uint64
	group    *commitGroup // open for joining; nil when none pending
	inflight *commitGroup // being written and synced; nil when none
	since    int          // records since the last snapshot
	err      error        // sticky: a failed sync poisons the log
	closed   bool

	groups chan *commitGroup
	done   chan struct{}
}

// Open opens (creating if absent) the journal in dir and recovers it:
// the latest snapshot blob plus every WAL record after it, with a torn
// final record truncated away. The recovered state is exposed via
// Snapshot and Entries; the caller folds it into its own state before
// appending new records.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	l := &Log{
		dir:    dir,
		groups: make(chan *commitGroup, 64),
		done:   make(chan struct{}),
	}
	var err error
	l.snapshotSeq, l.snapshot, err = readSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("durable: %w", err)
	}
	entries, valid, perr := parseWAL(walName, raw, l.snapshotSeq)
	if perr != nil {
		return nil, perr
	}
	l.entries = entries
	l.nextSeq = l.snapshotSeq + 1
	if n := len(entries); n > 0 {
		l.nextSeq = entries[n-1].Seq + 1
	}
	l.since = len(entries)
	if int64(len(raw)) > valid {
		// Torn tail: a record cut off mid-write by the crash. Truncate
		// it away so the next append starts at a record boundary.
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
	}
	l.f, err = os.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := syncDir(dir); err != nil {
		l.f.Close()
		return nil, err
	}
	go l.committer()
	return l, nil
}

// Snapshot returns the recovered snapshot blob (nil when none) and the
// sequence number it covers.
func (l *Log) Snapshot() (seq uint64, blob []byte) { return l.snapshotSeq, l.snapshot }

// Entries returns the recovered WAL records after the snapshot, in
// append order.
func (l *Log) Entries() []Record { return l.entries }

// SinceSnapshot reports how many records the current WAL holds —
// replayed plus appended — so the caller can pace snapshots.
func (l *Log) SinceSnapshot() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.since
}

// Append journals one record and returns once it is fsync-durable.
// Concurrent appends share fsyncs (group commit); the assigned
// sequence numbers are in file order.
func (l *Log) Append(op byte, data []byte) (uint64, error) {
	if len(data) > MaxRecord-16 {
		return 0, fmt.Errorf("durable: record %d bytes exceeds %d", len(data), MaxRecord-16)
	}
	l.gate.RLock()
	seq, g, err := l.buffer(op, data)
	l.gate.RUnlock()
	if err != nil {
		return 0, err
	}
	<-g.done
	return seq, g.err
}

// buffer sequences one record into the open commit group, opening one
// if none is.
func (l *Log) buffer(op byte, data []byte) (uint64, *commitGroup, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, nil, l.err
	}
	if l.closed {
		return 0, nil, errors.New("durable: log is closed")
	}
	seq := l.nextSeq
	l.nextSeq++
	l.since++
	l.buf = appendRecord(l.buf, op, seq, data)
	if l.group == nil {
		l.group = &commitGroup{done: make(chan struct{})}
		l.groups <- l.group
	}
	return seq, l.group, nil
}

// committer serializes commits: one goroutine, FIFO over groups, so
// buffers reach the file in the order their records were sequenced.
func (l *Log) committer() {
	defer close(l.done)
	for g := range l.groups {
		l.mu.Lock()
		buf := l.buf
		l.buf = l.scratch[:0]
		l.scratch = nil
		l.group = nil // appends from here join the next group
		l.inflight = g
		l.mu.Unlock()

		var err error
		if _, werr := l.f.Write(buf); werr != nil {
			err = werr
		} else if serr := l.f.Sync(); serr != nil {
			err = serr
		}

		l.mu.Lock()
		if err != nil && l.err == nil {
			l.err = err
		}
		l.scratch = buf[:0]
		l.inflight = nil
		l.mu.Unlock()
		g.err = err
		close(g.done)
	}
}

// quiesce waits until no append is buffered or mid-commit and returns
// with l.gate and l.mu held: no append starts until the caller releases
// both. It returns the sticky error, if any, without waiting. With the
// gate held no group opens, and a buffered record always has an open
// group, so it waits on the open group, else on the one in flight.
func (l *Log) quiesce() error {
	l.gate.Lock()
	l.mu.Lock()
	for l.err == nil {
		g := l.group
		if g == nil {
			g = l.inflight
		}
		if g == nil {
			break
		}
		l.mu.Unlock()
		<-g.done
		l.mu.Lock()
	}
	return l.err
}

// release undoes quiesce's locks.
func (l *Log) release() {
	l.mu.Unlock()
	l.gate.Unlock()
}

// WriteSnapshot makes blob the recovery baseline — it must describe
// the state after every record appended so far — and truncates the
// WAL. Crash-ordering safe: the snapshot is written to a temp file,
// fsynced, atomically renamed, and only then is the WAL truncated; a
// crash between the two leaves old records with seq <= the snapshot's,
// which replay skips. The caller must not Append concurrently.
func (l *Log) WriteSnapshot(blob []byte) error {
	err := l.quiesce()
	defer l.release()
	if err != nil {
		return err
	}
	if l.closed {
		return errors.New("durable: log is closed")
	}
	seq := l.nextSeq - 1
	frame := appendRecord(nil, 0, seq, blob)
	tmp := filepath.Join(l.dir, snapTmpName)
	if err := writeFileSync(tmp, frame); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The snapshot is durable; every WAL record is now redundant.
	if err := l.f.Truncate(0); err != nil {
		l.err = fmt.Errorf("durable: truncate wal: %w", err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.since = 0
	return nil
}

// Close flushes pending appends and closes the journal.
func (l *Log) Close() error {
	err := l.quiesce()
	if l.closed {
		l.release()
		return nil
	}
	l.closed = true
	close(l.groups)
	l.release()
	<-l.done
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendRecord encodes one framed record onto buf.
func appendRecord(buf []byte, op byte, seq uint64, data []byte) []byte {
	var seqb [binary.MaxVarintLen64]byte
	sn := binary.PutUvarint(seqb[:], seq)
	plen := 2 + sn + len(data)
	buf = binary.AppendUvarint(buf, uint64(plen))
	start := len(buf)
	buf = append(buf, recordVersion, op)
	buf = append(buf, seqb[:sn]...)
	buf = append(buf, data...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// parse outcome kinds for one record at an offset.
type parseKind int

const (
	parseOK   parseKind = iota
	parseTorn           // buffer ends inside the record — only valid at EOF
	parseBad            // structurally corrupt
)

// parseRecord decodes the record starting at pos. end is the offset
// one past the record when kind == parseOK; reason explains parseBad.
func parseRecord(buf []byte, pos int) (rec Record, end int, kind parseKind, reason string) {
	plen, n := binary.Uvarint(buf[pos:])
	if n == 0 {
		return rec, pos, parseTorn, ""
	}
	if n < 0 {
		return rec, pos, parseBad, "length varint overflows"
	}
	if plen > MaxRecord {
		return rec, pos, parseBad, fmt.Sprintf("record length %d exceeds %d", plen, MaxRecord)
	}
	body := pos + n
	rem := len(buf) - body
	if uint64(rem) < plen+4 {
		return rec, pos, parseTorn, ""
	}
	payload := buf[body : body+int(plen)]
	want := binary.LittleEndian.Uint32(buf[body+int(plen):])
	if crc32.Checksum(payload, castagnoli) != want {
		// A CRC break on the very last record of the file is the torn
		// tail (the length landed but the payload didn't); anywhere
		// else it is damage.
		if body+int(plen)+4 == len(buf) {
			return rec, pos, parseTorn, ""
		}
		return rec, pos, parseBad, "crc mismatch"
	}
	if plen < 3 {
		return rec, pos, parseBad, "payload too short"
	}
	if payload[0] != recordVersion {
		return rec, pos, parseBad, fmt.Sprintf("unknown record version %d", payload[0])
	}
	seq, sn := binary.Uvarint(payload[2:])
	if sn <= 0 {
		return rec, pos, parseBad, "bad sequence varint"
	}
	rec = Record{Seq: seq, Op: payload[1], Data: payload[2+sn:]}
	return rec, body + int(plen) + 4, parseOK, ""
}

// parseWAL scans the whole WAL: records with seq <= snapSeq are
// skipped (a crash between snapshot rename and WAL truncation leaves
// them behind, legitimately), sequence numbers must then advance by
// exactly one, and the scan classifies the first anomaly as either the
// torn tail (valid < len(buf), silently discarded by the caller) or
// corruption.
func parseWAL(name string, buf []byte, snapSeq uint64) (entries []Record, valid int64, err error) {
	pos := 0
	var last uint64 // last seq seen in this WAL; 0 = none yet
	for pos < len(buf) {
		rec, end, kind, reason := parseRecord(buf, pos)
		switch kind {
		case parseTorn:
			return entries, int64(pos), nil
		case parseBad:
			return nil, 0, &CorruptError{File: name, Offset: int64(pos), Reason: reason}
		}
		switch {
		case rec.Seq == 0:
			return nil, 0, &CorruptError{File: name, Offset: int64(pos), Reason: "sequence number 0"}
		case last != 0 && rec.Seq != last+1:
			return nil, 0, &CorruptError{File: name, Offset: int64(pos),
				Reason: fmt.Sprintf("sequence break: %d after %d", rec.Seq, last)}
		case last == 0 && rec.Seq > snapSeq+1:
			return nil, 0, &CorruptError{File: name, Offset: int64(pos),
				Reason: fmt.Sprintf("journal gap: first record seq %d, snapshot covers %d", rec.Seq, snapSeq)}
		}
		last = rec.Seq
		if rec.Seq > snapSeq {
			rec.Data = append([]byte(nil), rec.Data...)
			entries = append(entries, rec)
		}
		pos = end
	}
	return entries, int64(pos), nil
}

// readSnapshot loads and validates the snapshot file: exactly one
// framed record. Unlike the WAL there is no torn-tail allowance — the
// file only ever appears via atomic rename, so any damage is
// corruption.
func readSnapshot(path string) (seq uint64, blob []byte, err error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("durable: %w", err)
	}
	rec, end, kind, reason := parseRecord(buf, 0)
	if kind != parseOK {
		if reason == "" {
			reason = "truncated snapshot record"
		}
		return 0, nil, &CorruptError{File: snapName, Offset: 0, Reason: reason}
	}
	if end != len(buf) {
		return 0, nil, &CorruptError{File: snapName, Offset: int64(end), Reason: "trailing bytes after snapshot record"}
	}
	return rec.Seq, rec.Data, nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable (no-op where directories cannot be opened, e.g. Windows).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}
