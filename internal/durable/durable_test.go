package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// reopen closes nothing; it opens a fresh Log over dir and returns the
// recovered records.
func reopen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir)
	want := make([]Record, 0, 10)
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("record-%d", i))
		seq, err := l.Append(byte(i%3), data)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		want = append(want, Record{Seq: seq, Op: byte(i % 3), Data: data})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := reopen(t, dir)
	if seq, blob := l2.Snapshot(); seq != 0 || blob != nil {
		t.Fatalf("unexpected snapshot: seq=%d blob=%q", seq, blob)
	}
	got := l2.Entries()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Op != want[i].Op || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Continuation: appends pick up after the replayed tail.
	seq, err := l2.Append(9, []byte("more"))
	if err != nil || seq != 11 {
		t.Fatalf("continued Append = (%d, %v), want (11, nil)", seq, err)
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.SinceSnapshot(); n != 5 {
		t.Fatalf("SinceSnapshot = %d, want 5", n)
	}
	if err := l.WriteSnapshot([]byte("state-after-5")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n := l.SinceSnapshot(); n != 0 {
		t.Fatalf("SinceSnapshot after snapshot = %d, want 0", n)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not truncated: %v size=%d", err, fi.Size())
	}
	// Post-snapshot appends land in the fresh WAL with continuing seqs.
	if seq, err := l.Append(2, []byte("post")); err != nil || seq != 6 {
		t.Fatalf("post-snapshot Append = (%d, %v)", seq, err)
	}
	l.Close()

	l2 := reopen(t, dir)
	seq, blob := l2.Snapshot()
	if seq != 5 || string(blob) != "state-after-5" {
		t.Fatalf("snapshot = (%d, %q), want (5, state-after-5)", seq, blob)
	}
	ents := l2.Entries()
	if len(ents) != 1 || ents[0].Seq != 6 || string(ents[0].Data) != "post" {
		t.Fatalf("entries = %+v, want the one post-snapshot record", ents)
	}
}

// A crash between the snapshot rename and the WAL truncation leaves
// the old records behind; replay must skip the ones the snapshot
// already covers.
func TestReplaySkipsRecordsCoveredBySnapshot(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate the half-done snapshot: write it by hand, leave the WAL.
	frame := appendRecord(nil, 0, 3, []byte("covers-3"))
	if err := os.WriteFile(filepath.Join(dir, snapName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := reopen(t, dir)
	seq, blob := l2.Snapshot()
	if seq != 3 || string(blob) != "covers-3" {
		t.Fatalf("snapshot = (%d, %q)", seq, blob)
	}
	ents := l2.Entries()
	if len(ents) != 1 || ents[0].Seq != 4 {
		t.Fatalf("entries = %+v, want only seq 4", ents)
	}
	// Idempotence: a third replay sees the identical state.
	l2.Close()
	l3 := reopen(t, dir)
	if ents := l3.Entries(); len(ents) != 1 || ents[0].Seq != 4 {
		t.Fatalf("second replay entries = %+v", ents)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	cut := func(t *testing.T, survivors int, trim func(wal []byte) []byte) {
		t.Helper()
		dir := t.TempDir()
		l := reopen(t, dir)
		for i := 0; i < 3; i++ {
			if _, err := l.Append(1, []byte(fmt.Sprintf("rec%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		path := filepath.Join(dir, walName)
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, trim(wal), 0o644); err != nil {
			t.Fatal(err)
		}
		l2 := reopen(t, dir)
		ents := l2.Entries()
		if len(ents) != survivors {
			t.Fatalf("replayed %d records, want %d (torn tail discarded)", len(ents), survivors)
		}
		// The tail was truncated: appends restart cleanly.
		next := uint64(survivors + 1)
		if seq, err := l2.Append(7, []byte("fresh")); err != nil || seq != next {
			t.Fatalf("Append after torn tail = (%d, %v), want (%d, nil)", seq, err, next)
		}
		l2.Close()
		l3 := reopen(t, dir)
		if ents := l3.Entries(); len(ents) != survivors+1 || ents[survivors].Seq != next || string(ents[survivors].Data) != "fresh" {
			t.Fatalf("post-repair replay = %+v", ents)
		}
	}
	t.Run("mid-payload", func(t *testing.T) {
		cut(t, 2, func(wal []byte) []byte { return wal[:len(wal)-5] })
	})
	t.Run("mid-length-varint", func(t *testing.T) {
		// Append a lone continuation byte: a length varint that never
		// completes. The three whole records survive.
		cut(t, 3, func(wal []byte) []byte { return append(wal, 0x80) })
	})
	t.Run("payload-written-crc-garbage", func(t *testing.T) {
		// Flip a payload byte of the LAST record only: at EOF that is a
		// torn write, not corruption.
		cut(t, 2, func(wal []byte) []byte {
			wal[len(wal)-6] ^= 0xFF
			return wal
		})
	})
	t.Run("length-without-payload", func(t *testing.T) {
		cut(t, 3, func(wal []byte) []byte { return append(wal, 0x20) })
	})
}

func TestCorruptionIsTyped(t *testing.T) {
	corrupt := func(t *testing.T, mangle func(wal []byte) []byte) *CorruptError {
		t.Helper()
		dir := t.TempDir()
		l := reopen(t, dir)
		for i := 0; i < 3; i++ {
			if _, err := l.Append(1, []byte(fmt.Sprintf("rec%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		path := filepath.Join(dir, walName)
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mangle(wal), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, Options{})
		if err == nil {
			t.Fatal("Open succeeded on a corrupt journal")
		}
		if !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("error %v does not wrap ErrCorruptJournal", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error %T is not *CorruptError", err)
		}
		return ce
	}
	t.Run("mid-file-bitflip", func(t *testing.T) {
		ce := corrupt(t, func(wal []byte) []byte {
			wal[3] ^= 0xFF // inside the first record's payload
			return wal
		})
		if ce.Offset != 0 {
			t.Fatalf("offset = %d, want 0", ce.Offset)
		}
	})
	t.Run("oversized-length", func(t *testing.T) {
		corrupt(t, func(wal []byte) []byte {
			huge := binary.AppendUvarint(nil, MaxRecord+1)
			huge = append(huge, make([]byte, 64)...)
			return append(wal, huge...)
		})
	})
	t.Run("sequence-gap", func(t *testing.T) {
		corrupt(t, func(wal []byte) []byte {
			return appendRecord(wal, 1, 9, []byte("gap")) // after seq 3
		})
	})
	t.Run("corrupt-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		l := reopen(t, dir)
		if err := l.WriteSnapshot([]byte("blob")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		path := filepath.Join(dir, snapName)
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap[len(snap)-1] ^= 0x01
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("corrupt snapshot: err = %v, want ErrCorruptJournal", err)
		}
	})
}

// Concurrent appends must serialize into a contiguous sequence and all
// survive a replay — the group-commit batching cannot drop or reorder.
func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const G, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(byte(g), []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := reopen(t, dir)
	ents := l2.Entries()
	if len(ents) != G*per {
		t.Fatalf("replayed %d records, want %d", len(ents), G*per)
	}
	for i, r := range ents {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

// WriteSnapshot and Close quiesce the log while appends keep arriving:
// each waits out the open group and the commit in flight, then holds
// the log. Every Append that returned nil must survive the replay,
// either covered by the snapshot or as a WAL record with its own data,
// and the replay holds nothing that was not acked.
func TestSnapshotAndCloseRaceAppends(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir)
	const G = 8
	acked := make([]map[uint64][]byte, G)
	var started, wg sync.WaitGroup
	started.Add(G)
	for g := 0; g < G; g++ {
		acked[g] = make(map[uint64][]byte)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				data := []byte(fmt.Sprintf("g%d-%d", g, i))
				seq, err := l.Append(byte(g), data)
				if i == 0 {
					started.Done()
				}
				if err != nil {
					return // closed
				}
				acked[g][seq] = data
			}
		}(g)
	}
	started.Wait()
	for s := 0; s < 5; s++ {
		if err := l.WriteSnapshot([]byte("snap")); err != nil {
			t.Fatalf("WriteSnapshot %d: %v", s, err)
		}
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for l.WriteSnapshot([]byte("snap")) == nil {
		}
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	<-snapDone

	l2 := reopen(t, dir)
	snapSeq, _ := l2.Snapshot()
	replayed := make(map[uint64][]byte)
	for i, r := range l2.Entries() {
		if r.Seq != snapSeq+uint64(i)+1 {
			t.Fatalf("entry %d has seq %d after snapshot seq %d", i, r.Seq, snapSeq)
		}
		replayed[r.Seq] = r.Data
	}
	n, total := 0, 0
	for g := range acked {
		for seq, data := range acked[g] {
			total++
			if seq <= snapSeq {
				continue
			}
			n++
			if got, ok := replayed[seq]; !ok || !bytes.Equal(got, data) {
				t.Fatalf("acked seq %d (%q) replayed as %q, present %v", seq, data, got, ok)
			}
		}
	}
	if n != len(replayed) {
		t.Fatalf("replay holds %d records after the snapshot, %d were acked", len(replayed), n)
	}
	t.Logf("%d appends acked, %d covered by the last snapshot (seq %d)", total, total-n, snapSeq)
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir)
	l.Close()
	if _, err := l.Append(1, []byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir)
	if _, err := l.Append(1, make([]byte, MaxRecord)); err == nil {
		t.Fatal("oversized Append succeeded")
	}
	// The rejection is not sticky: the log still works.
	if _, err := l.Append(1, []byte("ok")); err != nil {
		t.Fatalf("Append after rejection: %v", err)
	}
}
