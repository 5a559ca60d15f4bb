package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// frameOf wraps a payload in a checksummed wal frame.
func frameOf(payload []byte) []byte {
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// hostileRepartitions are repartition payloads whose slice count the
// bytes that follow cannot back: 2^50 slices in a 10-byte payload (an
// 18-byte frame), and 10^8 slices in a 38-byte one.
func hostileRepartitions() [][]byte {
	huge := binary.AppendUvarint([]byte{1, byte(KindRepartition)}, 1<<50)
	big := binary.AppendUvarint([]byte{1, byte(KindRepartition)}, 100_000_000)
	big = append(big, make([]byte, 38-len(big))...)
	return [][]byte{huge, big}
}

// payloadSeeds is one payload per record kind plus the hostile ones.
func payloadSeeds() [][]byte {
	var out [][]byte
	for i, rec := range sampleRecords() {
		rec.Seq = uint64(i + 1)
		out = append(out, appendPayload(nil, &rec))
	}
	return append(out, hostileRepartitions()...)
}

// TestRecoverRejectsUnbackedSliceCount: a checksummed frame claiming
// more repartition slices than its payload has bytes for is refused
// with an error — recovery neither panics sizing the slice nor
// allocates for the claim.
func TestRecoverRejectsUnbackedSliceCount(t *testing.T) {
	for _, payload := range hostileRepartitions() {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal"), frameOf(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Recover(dir)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte payload: recovered without error", len(payload))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%d-byte payload: recovery allocated %d bytes", len(payload), grew)
		}
		if j, err := Open(dir, Options{}); err == nil {
			j.Close()
			t.Fatalf("%d-byte payload: Open succeeded", len(payload))
		}
	}
}

// FuzzDecodePayload: the decoder never panics, and whatever it accepts
// re-encodes to bytes that decode to the same record (compared through
// the canonical encoding, which also tells NaN bandwidths apart).
func FuzzDecodePayload(f *testing.F) {
	for _, p := range payloadSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodePayload(p)
		if err != nil {
			return
		}
		enc := appendPayload(nil, &rec)
		again, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", rec, err)
		}
		if !bytes.Equal(appendPayload(nil, &again), enc) {
			t.Fatalf("round trip changed the record:\n first  %+v\n second %+v", rec, again)
		}
	})
}

// FuzzScanFrames: the frame walker never panics, returns one end
// offset per record, and the offsets rise strictly within the data.
func FuzzScanFrames(f *testing.F) {
	var wal []byte // the sample records as one well-formed log
	for i, p := range payloadSeeds() {
		f.Add(frameOf(p))
		if i < len(sampleRecords()) {
			wal = append(wal, frameOf(p)...)
		}
	}
	f.Add(wal)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, ends, _, err := scanFrames("fuzz", data)
		if err != nil {
			return
		}
		if len(recs) != len(ends) {
			t.Fatalf("%d records, %d end offsets", len(recs), len(ends))
		}
		prev := int64(0)
		for i, end := range ends {
			if end <= prev || end > int64(len(data)) {
				t.Fatalf("end offset %d of record %d after %d in %d bytes", end, i, prev, len(data))
			}
			prev = end
		}
	})
}
