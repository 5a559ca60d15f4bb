// Package journal is mapad's durability layer: an append-only,
// checksummed, length-framed write-ahead log of committed System
// mutations, plus atomically-written snapshots that bound replay
// length. The owning System appends one record per committed mutation
// under its state lock, so the journal order *is* the observed
// linearization; recovery replays snapshot + journal and reconstructs
// the pre-crash state exactly.
//
// On-disk layout (one directory per daemon):
//
//	snapshot      latest durable snapshot (magic, length, CRC, JSON)
//	wal           journal records; those with Seq beyond the snapshot's
//	              LSN are live, older ones are skipped on recovery
//	snapshot.tmp  in-flight snapshot write, ignored by recovery
//
// Each journal record is framed as
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload carrying a strictly-increasing sequence number
// (LSN), the operation kind, and the kind's fields in varint/LE
// encoding. Recovery tolerates exactly one failure shape — a torn
// final record (partial frame, or a checksum mismatch on the last
// frame of the active segment), which a crash mid-append produces and
// which is discarded — and treats everything else (zero-length frames,
// checksum mismatches followed by more data, sequence gaps or
// duplicates, undecodable payloads) as a hard error: those can only
// come from real corruption, and silently dropping acknowledged
// mutations would be worse than refusing to start.
package journal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind identifies one journaled mutation type.
type Kind uint8

// The journaled System mutations. Values are part of the on-disk
// format; never renumber.
const (
	KindAllocate    Kind = 1 // a committed allocation decision
	KindRelease     Kind = 2 // a lease release (Expired marks reaper expiry)
	KindMark        Kind = 3 // GPUs marked unhealthy
	KindRestore     Kind = 4 // GPUs restored to service
	KindDegrade     Kind = 5 // a link re-weighted
	KindRepartition Kind = 6 // a MIG re-slice
	KindRenew       Kind = 7 // a lease deadline extension
)

// String names the kind for errors and tooling.
func (k Kind) String() string {
	switch k {
	case KindAllocate:
		return "allocate"
	case KindRelease:
		return "release"
	case KindMark:
		return "mark-unhealthy"
	case KindRestore:
		return "restore"
	case KindDegrade:
		return "degrade-link"
	case KindRepartition:
		return "repartition"
	case KindRenew:
		return "renew"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Slice is one repartition directive: a physical GPU and its new
// instance count.
type Slice struct {
	GPU, Instances int
}

// Record is one journaled mutation. Only the fields of its Kind are
// encoded:
//
//	allocate:     ID, NumGPUs, Shape, Sensitive, Owner, Deadline, GPUs
//	release:      ID, Expired, GPUs
//	mark/restore: GPUs
//	degrade:      U, V, BW
//	repartition:  Slices
//	renew:        ID, Deadline
type Record struct {
	// Seq is the record's log sequence number: strictly increasing by
	// one, assigned by Append. Replay verifies contiguity, so a
	// duplicated or dropped record is detected, not silently applied.
	Seq uint64
	// Kind selects which fields below are meaningful.
	Kind Kind

	// ID is the lease ID (allocate: assigned; release/renew: target).
	ID int
	// GPUs is the allocation result, the released set, or the
	// mark/restore argument.
	GPUs []int
	// NumGPUs, Shape, Sensitive echo the allocate request, so recovery
	// tooling can audit what was asked, not just what was granted.
	NumGPUs   int
	Shape     string
	Sensitive bool
	// Owner is the opaque owner label recorded with a lease (the
	// daemon stores the owning tenant name here).
	Owner string
	// Deadline is the lease expiry in Unix nanoseconds; 0 means no
	// TTL. Used by allocate and renew.
	Deadline int64
	// Expired marks a release produced by the expiry reaper rather
	// than a client.
	Expired bool
	// U, V, BW are the degrade-link endpoints and new bandwidth.
	U, V int
	BW   float64
	// Slices is the repartition directive, ascending by GPU.
	Slices []Slice
}

// appendPayload encodes r's payload (everything inside the frame) onto
// buf and returns the extended slice. The inverse is decodePayload.
func appendPayload(buf []byte, r *Record) []byte {
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KindAllocate:
		buf = binary.AppendUvarint(buf, uint64(r.ID))
		buf = binary.AppendUvarint(buf, uint64(r.NumGPUs))
		buf = appendString(buf, r.Shape)
		buf = appendBool(buf, r.Sensitive)
		buf = appendString(buf, r.Owner)
		buf = binary.AppendVarint(buf, r.Deadline)
		buf = appendInts(buf, r.GPUs)
	case KindRelease:
		buf = binary.AppendUvarint(buf, uint64(r.ID))
		buf = appendBool(buf, r.Expired)
		buf = appendInts(buf, r.GPUs)
	case KindMark, KindRestore:
		buf = appendInts(buf, r.GPUs)
	case KindDegrade:
		buf = binary.AppendUvarint(buf, uint64(r.U))
		buf = binary.AppendUvarint(buf, uint64(r.V))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.BW))
	case KindRepartition:
		buf = binary.AppendUvarint(buf, uint64(len(r.Slices)))
		for _, sl := range r.Slices {
			buf = binary.AppendUvarint(buf, uint64(sl.GPU))
			buf = binary.AppendUvarint(buf, uint64(sl.Instances))
		}
	case KindRenew:
		buf = binary.AppendUvarint(buf, uint64(r.ID))
		buf = binary.AppendVarint(buf, r.Deadline)
	default:
		panic(fmt.Sprintf("journal: encoding unknown kind %d", r.Kind))
	}
	return buf
}

// decodePayload parses one CRC-validated payload into a Record. Any
// failure here means the frame passed its checksum but cannot be the
// product of this encoder — real corruption — so callers treat errors
// as hard.
func decodePayload(p []byte) (Record, error) {
	d := decoder{buf: p}
	var r Record
	r.Seq = d.uvarint()
	r.Kind = Kind(d.byte())
	switch r.Kind {
	case KindAllocate:
		r.ID = int(d.uvarint())
		r.NumGPUs = int(d.uvarint())
		r.Shape = d.str()
		r.Sensitive = d.bool()
		r.Owner = d.str()
		r.Deadline = d.varint()
		r.GPUs = d.ints()
	case KindRelease:
		r.ID = int(d.uvarint())
		r.Expired = d.bool()
		r.GPUs = d.ints()
	case KindMark, KindRestore:
		r.GPUs = d.ints()
	case KindDegrade:
		r.U = int(d.uvarint())
		r.V = int(d.uvarint())
		r.BW = math.Float64frombits(d.u64())
	case KindRepartition:
		n := d.uvarint()
		if n > uint64(len(d.buf))/2 { // each slice is at least two bytes
			d.fail()
		}
		if d.err == nil && n > 0 {
			r.Slices = make([]Slice, n)
			for i := range r.Slices {
				r.Slices[i] = Slice{GPU: int(d.uvarint()), Instances: int(d.uvarint())}
			}
		}
	case KindRenew:
		r.ID = int(d.uvarint())
		r.Deadline = d.varint()
	default:
		return Record{}, fmt.Errorf("journal: unknown record kind %d", uint8(r.Kind))
	}
	if d.err != nil {
		return Record{}, fmt.Errorf("journal: decoding %s record: %w", r.Kind, d.err)
	}
	if len(d.buf) != 0 {
		return Record{}, fmt.Errorf("journal: %s record has %d trailing bytes", r.Kind, len(d.buf))
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// decoder consumes a payload left to right, latching the first error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated payload")
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.buf)) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) ints() []int {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if uint64(len(d.buf)) < n { // each element is at least one byte
		d.fail()
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.uvarint())
	}
	return out
}
