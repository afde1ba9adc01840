package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/seq"
)

// RowsPerBatch is the number of result entries a ResultRows frame
// carries at most.
const RowsPerBatch = 256

// RowsBatchBytes bounds the encoded payload of one outgoing ResultRows
// frame: a batch flushes at whichever comes first, RowsPerBatch entries
// or RowsBatchBytes of encoded entries, keeping every frame far below
// DefaultMaxFrame even when individual records carry large strings.
const RowsBatchBytes = 1 << 20

// maxKeptBuffer is the largest frame buffer a connection keeps between
// turns; a one-off larger frame gets a buffer that is dropped after it.
const maxKeptBuffer = 1 << 20

// SplitRows partitions a result into ResultRows batches bounded by both
// RowsPerBatch entries and RowsBatchBytes encoded bytes. Batches are
// contiguous subslices of entries (no copying); a single entry larger
// than RowsBatchBytes forms a batch of its own. Entry sizes are computed,
// not encoded.
func SplitRows(entries []seq.Entry) [][]seq.Entry {
	var out [][]seq.Entry
	start, batchBytes := 0, 0
	for i, e := range entries {
		sz := entrySize(e)
		if i > start && (batchBytes+sz > RowsBatchBytes || i-start >= RowsPerBatch) {
			out = append(out, entries[start:i])
			start, batchBytes = i, 0
		}
		batchBytes += sz
	}
	if start < len(entries) {
		out = append(out, entries[start:])
	}
	return out
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the encoded length of v as a zig-zag varint.
func varintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// entrySize is the encoded length of one entry: its position, then its
// record as writer.record lays it out.
func entrySize(e seq.Entry) int {
	n := varintLen(e.Pos) + uvarintLen(uint64(len(e.Rec)))
	for _, v := range e.Rec {
		n++ // type tag
		switch v.T {
		case seq.TInt:
			n += varintLen(v.AsInt())
		case seq.TFloat:
			n += 8
		case seq.TString:
			s := v.AsStr()
			n += uvarintLen(uint64(len(s))) + len(s)
		case seq.TBool:
			n++
		}
	}
	return n
}

// rowsHeader is the room a RowsEncoder reserves ahead of a frame's
// entries: the length prefix, the type byte and a row count of at most
// RowsPerBatch, which takes two uvarint bytes.
const rowsHeader = 4 + 1 + 2

// RowsEncoder encodes result rows straight into length-prefixed
// ResultRows frames. It cuts frames where SplitRows cuts, so for the same
// rows its output is byte for byte what WriteMessage writes for each
// SplitRows batch. It implements exec.BatchSink: a query's columnar
// batches are encoded in one pass over their column vectors, without
// boxing a record. Its buffer is reused across Reset calls.
type RowsEncoder struct {
	buf   []byte
	ends  []int // end offsets of the closed frames
	start int   // offset of the open frame's reserved header
	rows  int   // entries in the open frame; 0 when none is open
	body  int   // encoded bytes of those entries
	total int   // entries encoded since Reset
}

// AppendBatch encodes the batch's valid rows; string handles resolve
// through in.
func (e *RowsEncoder) AppendBatch(b *seq.Batch, in *seq.Intern) {
	n := len(b.Pos)
	width := uint64(len(b.Cols))
	for i := b.Valid.NextSet(0, n); i < n; i = b.Valid.NextSet(i+1, n) {
		e.open()
		off := len(e.buf)
		buf := binary.AppendVarint(e.buf, b.Pos[i])
		buf = binary.AppendUvarint(buf, width)
		for j := range b.Cols {
			c := &b.Cols[j]
			buf = append(buf, byte(c.T))
			switch c.T {
			case seq.TInt:
				buf = binary.AppendVarint(buf, c.I[i])
			case seq.TFloat:
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.F[i]))
			case seq.TString:
				s := in.Str(c.H[i])
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			case seq.TBool:
				if c.B[i] {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
		e.buf = buf
		e.commit(off)
	}
}

// Rows returns the number of entries encoded since Reset.
func (e *RowsEncoder) Rows() int { return e.total }

// Frames finishes the open frame and returns every frame encoded since
// Reset, each with its length prefix. The bytes are valid until Reset.
func (e *RowsEncoder) Frames() [][]byte {
	e.close()
	out := make([][]byte, len(e.ends))
	start := 0
	for i, end := range e.ends {
		out[i] = e.buf[start:end]
		start = end
	}
	return out
}

// Reset empties the encoder, keeping its buffer unless it grew past
// 1 MiB.
func (e *RowsEncoder) Reset() {
	if cap(e.buf) > maxKeptBuffer {
		e.buf = nil
	}
	*e = RowsEncoder{buf: e.buf[:0], ends: e.ends[:0]}
}

// open starts a frame unless one with room for another entry is open.
func (e *RowsEncoder) open() {
	if e.rows == RowsPerBatch {
		e.close()
	}
	if e.rows == 0 {
		e.start = len(e.buf)
		e.buf = append(e.buf, make([]byte, rowsHeader)...)
	}
}

// commit accounts the entry just encoded at buf[off:]. An entry that
// would take a non-empty frame past RowsBatchBytes moves to a new frame.
func (e *RowsEncoder) commit(off int) {
	sz := len(e.buf) - off
	if e.rows > 0 && e.body+sz > RowsBatchBytes {
		// Rare: it takes entries of kilobytes to fill a frame this way.
		entry := bytes.Clone(e.buf[off:])
		e.buf = e.buf[:off]
		e.close()
		e.open()
		e.buf = append(e.buf, entry...)
	}
	e.rows++
	e.body += sz
	e.total++
}

// close finishes the open frame in its reserved header. A row count
// below 128 takes one uvarint byte, so the entries then move up one byte
// to meet it.
func (e *RowsEncoder) close() {
	if e.rows == 0 {
		return
	}
	h := e.start
	cn := uvarintLen(uint64(e.rows))
	if gap := 2 - cn; gap > 0 {
		copy(e.buf[h+rowsHeader-gap:], e.buf[h+rowsHeader:])
		e.buf = e.buf[:len(e.buf)-gap]
	}
	binary.BigEndian.PutUint32(e.buf[h:], uint32(len(e.buf)-h-4))
	e.buf[h+4] = byte(TResultRows)
	binary.PutUvarint(e.buf[h+5:], uint64(e.rows))
	e.ends = append(e.ends, len(e.buf))
	e.rows, e.body = 0, 0
}

// entries decodes an entry count and that many entries, appending them
// to dst. The records of a frame are carved from one value slab, sized
// for the frame's remaining entries at the width of the first record
// that needs it, but never beyond what the unread payload can hold:
// every value takes at least two bytes, so a hostile count cannot ask
// for more memory than a payload of the same size could fill.
func (r *reader) entries(dst []seq.Entry, what string) []seq.Entry {
	n := r.count(what, RowsPerBatch*16)
	if r.err == nil && n > r.remaining()/2 {
		r.fail("%s count %d exceeds the payload", what, n) // an entry takes at least 2 bytes
	}
	if r.err != nil {
		return dst
	}
	if cap(dst)-len(dst) < n {
		// Double rather than let append grow a long result by 1.25x a
		// frame at a time: a client appends frame after frame here.
		grown := make([]seq.Entry, len(dst), 2*cap(dst)+n)
		copy(grown, dst)
		dst = grown
	} else if dst == nil {
		dst = []seq.Entry{} // a frame of no entries decodes to an empty slice
	}
	var slab []seq.Value
	for i := 0; i < n; i++ {
		pos := r.varint()
		k := r.count("record field", 1<<16)
		if r.err != nil {
			return dst
		}
		var rec seq.Record // a count of 0 is the Null record
		if k > 0 {
			if k > len(slab) {
				size := min(k*(n-i), r.remaining()/2)
				if k > size {
					r.fail("record of %d fields exceeds the payload", k)
					return dst
				}
				slab = make([]seq.Value, size)
			}
			rec = seq.Record(slab[:k:k])
			slab = slab[k:]
			for j := range rec {
				rec[j] = r.value()
			}
		}
		dst = append(dst, seq.Entry{Pos: pos, Rec: rec})
	}
	return dst
}

// decodeRows decodes a ResultRows frame body, appending its entries to
// dst: Decode without the intermediate message.
func decodeRows(frame []byte, dst []seq.Entry) ([]seq.Entry, error) {
	r := &reader{buf: frame[1:]}
	dst = r.entries(dst, "row")
	if r.err != nil {
		return dst, fmt.Errorf("wire: decode ResultRows: %w", r.err)
	}
	if r.off != len(r.buf) {
		return dst, fmt.Errorf("wire: decode ResultRows: %d trailing bytes", len(r.buf)-r.off)
	}
	return dst, nil
}
