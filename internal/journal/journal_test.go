package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleRecords exercises every kind and every field.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindAllocate, ID: 1, NumGPUs: 2, Shape: "Clique", Sensitive: true,
			Owner: "tenant-a", Deadline: 1_700_000_000_000_000_000, GPUs: []int{3, 5}},
		{Kind: KindAllocate, ID: 2, NumGPUs: 1, Shape: "", GPUs: []int{0}},
		{Kind: KindMark, GPUs: []int{4, 6, 7}},
		{Kind: KindDegrade, U: 2, V: 9, BW: 12.5},
		{Kind: KindRelease, ID: 1, Expired: true, GPUs: []int{3, 5}},
		{Kind: KindRestore, GPUs: []int{4}},
		{Kind: KindRepartition, Slices: []Slice{{GPU: 0, Instances: 7}, {GPU: 3, Instances: 2}}},
		{Kind: KindRenew, ID: 2, Deadline: 1_700_000_001_000_000_000},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, want := range sampleRecords() {
		want.Seq = uint64(i + 1)
		payload := appendPayload(nil, &want)
		got, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("record %d (%s): decode: %v", i, want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d (%s): round trip mismatch:\n got  %+v\n want %+v", i, want.Kind, got, want)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	rec := Record{Seq: 1, Kind: KindAllocate, ID: 1, NumGPUs: 2, Shape: "Ring", Owner: "t", GPUs: []int{1, 2}}
	payload := appendPayload(nil, &rec)
	if _, err := decodePayload(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := decodePayload(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("payload with trailing byte decoded without error")
	}
	bad := append([]byte(nil), payload...)
	bad[1] = 99 // unknown kind
	if _, err := decodePayload(bad); err == nil {
		t.Error("unknown kind decoded without error")
	}
}

// appendAll writes recs to a fresh journal in dir and closes it.
func appendAll(t *testing.T, dir string, recs []Record, opts Options) {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := range recs {
		if err := j.Append(&recs[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	appendAll(t, dir, recs, Options{})

	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	snap, live := j.Recovered()
	if snap != nil {
		t.Errorf("unexpected snapshot: %+v", snap)
	}
	if len(live) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(live), len(recs))
	}
	for i, got := range live {
		want := recs[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d mismatch:\n got  %+v\n want %+v", i, got, want)
		}
	}
	if j.LastSeq() != uint64(len(recs)) {
		t.Errorf("LastSeq = %d, want %d", j.LastSeq(), len(recs))
	}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := sampleRecords()
	for i := range recs[:4] {
		if err := j.Append(&recs[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	snap := &Snapshot{LSN: 4, Topology: "dgx-a100", Policy: "greedy", NextID: 3,
		Leases: []LeaseState{{ID: 2, GPUs: []int{0}}}}
	if err := j.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if st := j.Stats(); st.SnapshotLSN != 4 || st.RecordsSinceSnapshot != 0 {
		t.Errorf("post-snapshot stats: %+v", st)
	}
	for i := range recs[4:] {
		if err := j.Append(&recs[4+i]); err != nil {
			t.Fatalf("Append after snapshot: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	gotSnap, live := j2.Recovered()
	if gotSnap == nil || !reflect.DeepEqual(gotSnap, snap) {
		t.Errorf("snapshot mismatch:\n got  %+v\n want %+v", gotSnap, snap)
	}
	if len(live) != len(recs)-4 {
		t.Fatalf("recovered %d live records, want %d", len(live), len(recs)-4)
	}
	if live[0].Seq != 5 {
		t.Errorf("first live seq = %d, want 5", live[0].Seq)
	}
	if j2.LastSeq() != uint64(len(recs)) {
		t.Errorf("LastSeq = %d, want %d", j2.LastSeq(), len(recs))
	}
}

func TestWriteSnapshotRejectsStaleLSN(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	r := Record{Kind: KindMark, GPUs: []int{1}}
	if err := j.Append(&r); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.WriteSnapshot(&Snapshot{LSN: 0}); err == nil {
		t.Error("snapshot at LSN 0 accepted with log at seq 1")
	}
	if err := j.WriteSnapshot(&Snapshot{LSN: 2}); err == nil {
		t.Error("snapshot beyond log end accepted")
	}
}

// TestRecoverAtEveryBytePrefix is the core crash-injection sweep at the
// file level: however many bytes of the wal survive, recovery must
// come back with exactly the fully-framed records and no error.
func TestRecoverAtEveryBytePrefix(t *testing.T) {
	src := t.TempDir()
	recs := sampleRecords()
	appendAll(t, src, recs, Options{})
	data, err := os.ReadFile(filepath.Join(src, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	_, ends, torn, err := ScanFile(filepath.Join(src, "wal"))
	if err != nil || torn {
		t.Fatalf("ScanFile on intact wal: torn=%v err=%v", torn, err)
	}
	if len(ends) != len(recs) {
		t.Fatalf("ScanFile found %d records, want %d", len(ends), len(recs))
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs := 0
		for _, end := range ends {
			if int64(cut) >= end {
				wantRecs++
			}
		}
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		_, live := j.Recovered()
		if len(live) != wantRecs {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(live), wantRecs)
		}
		// Open must have truncated the torn tail in place.
		if fi, err := os.Stat(filepath.Join(dir, "wal")); err != nil {
			t.Fatal(err)
		} else if wantRecs > 0 && fi.Size() != ends[wantRecs-1] {
			t.Fatalf("cut=%d: wal is %d bytes after Open, want %d", cut, fi.Size(), ends[wantRecs-1])
		}
		// And appending must continue the sequence without a gap.
		r := Record{Kind: KindRestore, GPUs: []int{0}}
		if err := j.Append(&r); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if r.Seq != uint64(wantRecs+1) {
			t.Fatalf("cut=%d: post-recovery seq = %d, want %d", cut, r.Seq, wantRecs+1)
		}
		j.Close()
	}
}

func TestBitFlipFinalFrameIsTorn(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	appendAll(t, dir, recs, Options{})
	path := filepath.Join(dir, "wal")
	data, _ := os.ReadFile(path)
	flip := append([]byte(nil), data...)
	flip[len(flip)-1] ^= 0x40 // damage the last record's payload
	if err := os.WriteFile(path, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with damaged final frame: %v", err)
	}
	defer j.Close()
	_, live := j.Recovered()
	if len(live) != len(recs)-1 {
		t.Errorf("recovered %d records, want %d (final discarded)", len(live), len(recs)-1)
	}
}

func TestBitFlipMidFileIsHardError(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	appendAll(t, dir, recs, Options{})
	path := filepath.Join(dir, "wal")
	data, _ := os.ReadFile(path)
	_, ends, _, _ := ScanFile(path)
	// Flip a payload byte of the first record: checksum mismatch with
	// more data after it can only be real corruption.
	flip := append([]byte(nil), data...)
	flip[ends[0]-1] ^= 0x01
	if err := os.WriteFile(path, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("Open = %v, want mid-file checksum hard error", err)
	}
	if _, _, err := Recover(dir); err == nil {
		t.Error("Recover accepted mid-file corruption")
	}
}

func TestZeroLengthFrameIsHardError(t *testing.T) {
	dir := t.TempDir()
	// A zero-length frame whose CRC happens to validate (CRC of empty
	// is 0) must still be rejected: the encoder never writes one.
	frame := make([]byte, frameHeaderSize)
	if err := os.WriteFile(filepath.Join(dir, "wal"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Errorf("Open = %v, want zero-length frame hard error", err)
	}
}

// writeFrame appends one raw frame for a record with the given seq.
func writeFrame(t *testing.T, path string, rec Record) {
	t.Helper()
	frame := frameOf(appendPayload(nil, &rec))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestDuplicateSequenceIsHardError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	writeFrame(t, path, Record{Seq: 1, Kind: KindMark, GPUs: []int{1}})
	writeFrame(t, path, Record{Seq: 1, Kind: KindMark, GPUs: []int{2}})
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Open = %v, want duplicate-sequence hard error", err)
	}
}

func TestSequenceGapIsHardError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	writeFrame(t, path, Record{Seq: 1, Kind: KindMark, GPUs: []int{1}})
	writeFrame(t, path, Record{Seq: 3, Kind: KindMark, GPUs: []int{2}})
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("Open = %v, want sequence-gap hard error", err)
	}
	// A first record that doesn't connect to the (absent) snapshot is
	// the same class of damage.
	dir2 := t.TempDir()
	writeFrame(t, filepath.Join(dir2, "wal"), Record{Seq: 2, Kind: KindMark, GPUs: []int{1}})
	if _, err := Open(dir2, Options{}); err == nil {
		t.Error("Open accepted a journal starting at seq 2 with no snapshot")
	}
}

func TestIntervalFsyncAppendsAreImmediatelyOnDisk(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	r := Record{Kind: KindMark, GPUs: []int{1, 2}}
	if err := j.Append(&r); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// No userspace buffering: the frame must be visible to an
	// independent reader before any fsync runs — this is what makes
	// acked records survive SIGKILL in interval mode.
	recs, _, torn, err := ScanFile(filepath.Join(dir, "wal"))
	if err != nil || torn {
		t.Fatalf("ScanFile: torn=%v err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("read-back saw %d records (%+v), want the appended one", len(recs), recs)
	}
}

func TestAppendAllocBudget(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	rec := Record{Kind: KindAllocate, ID: 1, NumGPUs: 2, Shape: "Clique",
		Owner: "tenant-a", GPUs: []int{3, 5}}
	// Warm the reused buffer once.
	if err := j.Append(&rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := j.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("Append allocates %.1f objects/op, want 0", avg)
	}
}

func TestParseFsyncMode(t *testing.T) {
	if m, err := ParseFsyncMode("always"); err != nil || m != FsyncAlways {
		t.Errorf("ParseFsyncMode(always) = %v, %v", m, err)
	}
	if m, err := ParseFsyncMode("interval"); err != nil || m != FsyncInterval {
		t.Errorf("ParseFsyncMode(interval) = %v, %v", m, err)
	}
	if _, err := ParseFsyncMode("never"); err == nil {
		t.Error("ParseFsyncMode(never) accepted")
	}
}

func TestSnapshotFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Kind: KindMark, GPUs: []int{1}}
	if err := j.Append(&r); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(&Snapshot{LSN: 1, Topology: "dgx-a100", Policy: "greedy", NextID: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, "snapshot")
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("Open accepted a corrupted snapshot")
	}
}

func TestLeftoverSnapshotTmpIsIgnored(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, sampleRecords()[:2], Options{})
	if err := os.WriteFile(filepath.Join(dir, "snapshot.tmp"), []byte("garbage from a crashed snapshot write"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with leftover snapshot.tmp: %v", err)
	}
	defer j.Close()
	if _, err := os.Stat(filepath.Join(dir, "snapshot.tmp")); !os.IsNotExist(err) {
		t.Error("snapshot.tmp not cleaned up")
	}
	if _, live := j.Recovered(); len(live) != 2 {
		t.Errorf("recovered %d records, want 2", len(live))
	}
}
