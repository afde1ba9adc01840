package wire

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/seq"
)

// splitRowsByEncoding is the reference SplitRows: it sizes each entry by
// encoding it.
func splitRowsByEncoding(entries []seq.Entry) [][]seq.Entry {
	var out [][]seq.Entry
	w := &writer{}
	start, batchBytes := 0, 0
	for i, e := range entries {
		w.buf = w.buf[:0]
		w.varint(e.Pos)
		w.record(e.Rec)
		sz := len(w.buf)
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

var rowsSchema = seq.MustSchema(
	seq.Field{Name: "i", Type: seq.TInt},
	seq.Field{Name: "f", Type: seq.TFloat},
	seq.Field{Name: "s", Type: seq.TString},
	seq.Field{Name: "b", Type: seq.TBool},
)

// rowsCase builds n conforming entries from pos upward (every step
// positions apart) whose values cover every varint length, the float
// specials and strings of strLen bytes.
func rowsCase(n int, pos, step int64, strLen int) []seq.Entry {
	ints := []int64{0, 1, -1, 63, -64, 64, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.NaN(), -1e300}
	out := make([]seq.Entry, n)
	for i := range out {
		s := strings.Repeat(string(rune('a'+i%26)), strLen+i%3)
		out[i] = seq.Entry{Pos: pos + int64(i)*step, Rec: seq.Record{
			seq.Int(ints[i%len(ints)]), seq.Float(floats[i%len(floats)]), seq.Str(s), seq.Bool(i%2 == 0),
		}}
	}
	return out
}

// splitCases are the inputs the cut and encoder tests share.
func splitCases() map[string][]seq.Entry {
	big := strings.Repeat("x", RowsBatchBytes)
	oneMiB := rowsCase(5, 10, 1, 3)
	oneMiB[2].Rec[2] = seq.Str(big)
	return map[string][]seq.Entry{
		"empty":              nil,
		"one":                rowsCase(1, 7, 1, 1),
		"exactly 256":        rowsCase(RowsPerBatch, 1, 1, 2),
		"257":                rowsCase(RowsPerBatch+1, 1, 1, 2),
		"exactly 512":        rowsCase(2*RowsPerBatch, 1, 3, 0),
		"negative positions": rowsCase(700, -5000, 7, 4),
		"1 MiB string row":   oneMiB,
		"byte bound":         rowsCase(300, 0, 1, 64<<10),
		"wide values":        rowsCase(1000, -(1 << 40), 1<<30, 200),
	}
}

func batchSizes(bs [][]seq.Entry) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = len(b)
	}
	return out
}

// TestSplitRowsMatchesEncodedSizes checks the computed entry sizes
// against the encoding: the cuts equal those of a SplitRows that
// encodes every entry to measure it.
func TestSplitRowsMatchesEncodedSizes(t *testing.T) {
	cases := splitCases()
	cases["null records"] = []seq.Entry{{Pos: -3}, {Pos: 0, Rec: seq.Record{seq.Int(1)}}, {Pos: 1 << 50}}
	for name, entries := range cases {
		got, want := SplitRows(entries), splitRowsByEncoding(entries)
		if !reflect.DeepEqual(batchSizes(got), batchSizes(want)) {
			t.Errorf("%s: cuts %v, want %v", name, batchSizes(got), batchSizes(want))
		}
		for _, e := range entries {
			w := &writer{}
			w.varint(e.Pos)
			w.record(e.Rec)
			if sz := entrySize(e); sz != len(w.buf) {
				t.Fatalf("%s: entrySize(pos %d) = %d, encoded %d bytes", name, e.Pos, sz, len(w.buf))
			}
		}
	}
	if got := batchSizes(SplitRows(cases["exactly 256"])); !reflect.DeepEqual(got, []int{256}) {
		t.Errorf("256 rows split %v, want one batch", got)
	}
	if got := batchSizes(SplitRows(cases["1 MiB string row"])); !reflect.DeepEqual(got, []int{2, 1, 2}) {
		t.Errorf("a 1 MiB row split %v, want it in a batch of its own: [2 1 2]", got)
	}
}

// framedBatches is what a server wrote before RowsEncoder: WriteMessage
// of each SplitRows batch.
func framedBatches(t testing.TB, entries []seq.Entry) []byte {
	var buf bytes.Buffer
	for _, b := range SplitRows(entries) {
		if err := WriteMessage(&buf, &ResultRows{Entries: b}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// batchesOf packs conforming entries into columnar batches of size rows,
// interning strings in in.
func batchesOf(t testing.TB, entries []seq.Entry, size int, in *seq.Intern) []*seq.Batch {
	var out []*seq.Batch
	for lo := 0; lo < len(entries); lo += size {
		b := seq.NewBatchFor(rowsSchema, size)
		if err := b.AppendEntryRows(entries[lo:min(lo+size, len(entries))], in); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestRowsEncoderMatchesWriteMessage requires the encoder's frames, fed
// columnar batches, to be byte-identical to WriteMessage of the
// SplitRows batches of the same rows.
func TestRowsEncoderMatchesWriteMessage(t *testing.T) {
	enc := &RowsEncoder{}
	for name, entries := range splitCases() {
		want := framedBatches(t, entries)
		for _, size := range []int{1, 100, 1024} {
			in := seq.NewIntern()
			enc.Reset()
			for _, b := range batchesOf(t, entries, size, in) {
				enc.AppendBatch(b, in)
			}
			if got := bytes.Join(enc.Frames(), nil); !bytes.Equal(got, want) {
				t.Errorf("%s, batches of %d: AppendBatch frames differ (%d bytes, want %d)", name, size, len(got), len(want))
			}
			if enc.Rows() != len(entries) {
				t.Errorf("%s, batches of %d: Rows() = %d, want %d", name, size, enc.Rows(), len(entries))
			}
		}
	}
}

// TestRowsEncoderSkipsInvalidRows clears validity bits, as a selection
// does, and requires only the valid rows on the wire.
func TestRowsEncoderSkipsInvalidRows(t *testing.T) {
	entries := rowsCase(600, 1, 1, 3)
	in := seq.NewIntern()
	var kept []seq.Entry
	enc := &RowsEncoder{}
	for _, b := range batchesOf(t, entries, 128, in) {
		for i := range b.Pos {
			if (b.Pos[i]%3 == 0) || (b.Pos[i] > 200 && b.Pos[i] < 300) {
				b.Valid.Clear(i)
				continue
			}
			kept = append(kept, seq.Entry{Pos: b.Pos[i], Rec: b.Row(i, in)})
		}
		enc.AppendBatch(b, in)
	}
	if got, want := bytes.Join(enc.Frames(), nil), framedBatches(t, kept); !bytes.Equal(got, want) {
		t.Fatalf("frames of the valid rows differ (%d bytes, want %d)", len(got), len(want))
	}
}

// TestDecodedStringsDoNotAliasFrame overwrites a frame buffer after
// decoding and requires the decoded strings intact: FrameReader hands
// the same buffer to the next frame.
func TestDecodedStringsDoNotAliasFrame(t *testing.T) {
	msgs := []Message{
		&ResultRows{Entries: []seq.Entry{{Pos: 1, Rec: seq.Record{seq.Str("alpha"), seq.Int(2)}}, {Pos: 3, Rec: seq.Record{seq.Str("beta"), seq.Int(4)}}}},
		&Delta{SubID: 1, Epoch: 2, Start: 1, End: 9, Entries: []seq.Entry{{Pos: 5, Rec: seq.Record{seq.Str("gamma")}}}},
		&SeqList{Names: []string{"ibm", "dec"}},
		&Error{Code: CodeParse, Message: "unexpected token"},
	}
	for _, m := range msgs {
		frame := Encode(m)
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] = 'Z'
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s changed when its frame was overwritten: %#v", TypeName(m.Type()), got)
		}
	}

	// Through one FrameReader: the second frame reuses the first's buffer.
	var stream bytes.Buffer
	first := &ResultRows{Entries: []seq.Entry{{Pos: 1, Rec: seq.Record{seq.Str("first")}}}}
	second := &ResultRows{Entries: []seq.Entry{{Pos: 2, Rec: seq.Record{seq.Str("SECOND")}}}}
	for _, m := range []Message{first, second} {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream, 0)
	a, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, first) || !reflect.DeepEqual(b, second) {
		t.Fatalf("frames read through one buffer: %#v, %#v", a, b)
	}
}

// TestFrameReaderTrim keeps a small frame buffer across turns and drops
// one that grew past 1 MiB.
func TestFrameReaderTrim(t *testing.T) {
	var stream bytes.Buffer
	small := &SeqList{Names: []string{"a"}}
	huge := &PlanText{Text: strings.Repeat("p", 2<<20)}
	for _, m := range []Message{small, huge} {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream, 0)
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	fr.Trim()
	if fr.buf == nil {
		t.Fatal("Trim dropped a small buffer")
	}
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	fr.Trim()
	if fr.buf != nil {
		t.Fatalf("Trim kept a %d-byte buffer", cap(fr.buf))
	}
}

// TestWriteMessageOneWrite counts the writes a frame costs.
func TestWriteMessageOneWrite(t *testing.T) {
	cw := &countingWriter{}
	if err := WriteMessage(cw, &Ready{Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("WriteMessage made %d writes, want 1", cw.writes)
	}
	if !bytes.Equal(cw.buf.Bytes()[4:], Encode(&Ready{Epoch: 3})) {
		t.Fatalf("frame %x", cw.buf.Bytes())
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// hostileRows crafts a ResultRows frame announcing rows of fields
// fields each, followed by pad bytes of filler: counts that pass the
// per-count checks but describe far more values than the payload holds.
func hostileRows(rows, fields, pad int) []byte {
	w := &writer{}
	w.byte(byte(TResultRows))
	w.uvarint(uint64(rows))
	w.varint(1)
	w.uvarint(uint64(fields))
	for i := 0; i < pad; i++ {
		w.byte(byte(seq.TBool))
	}
	return w.buf
}

// TestHostileRowCountsDoNotAllocate decodes ResultRows frames whose
// counts exceed what their payload can hold. Each must fail without an
// allocation proportional to the counts: 4096 rows of 65536 fields would
// be a 10 GiB slab.
func TestHostileRowCountsDoNotAllocate(t *testing.T) {
	frames := map[string][]byte{
		"4096 rows of 65536 fields": hostileRows(4096, 65536, 70000),
		"4096 rows of 60000 fields": hostileRows(4096, 60000, 100000),
		"fields beyond the payload": hostileRows(2, 5000, 6000),
	}
	for name, frame := range frames {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if _, err := Decode(frame); err == nil {
				t.Fatalf("%s: hostile frame accepted", name)
			}
			if _, err := decodeRows(frame, nil); err == nil {
				t.Fatalf("%s: hostile frame accepted by the client path", name)
			}
		}
		runtime.ReadMemStats(&after)
		// Twenty failed decodes, each allowed what a payload of the
		// frame's size could fill: 32 bytes of entries and values per
		// payload byte.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 20*32*uint64(len(frame)) {
			t.Errorf("%s: failed decodes allocated %d bytes for a %d-byte frame", name, alloc, len(frame))
		}
	}
}

// FuzzDecode feeds arbitrary frame bodies to Decode and to the client's
// row decoder. Neither may panic; a frame that decodes must re-encode to
// bytes that decode to the same encoding again, and both decoders must
// agree on ResultRows.
func FuzzDecode(f *testing.F) {
	for _, ti := range Types() {
		f.Add(Encode(sample(ti.Code)))
	}
	f.Add(hostileRows(4096, 65536, 64))
	f.Add(Encode(&ResultRows{Entries: rowsCase(300, -10, 1, 5)}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(frame)
		if len(frame) > 0 && Type(frame[0]) == TResultRows {
			rows, rerr := decodeRows(frame, nil)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("Decode error %v, decodeRows error %v", err, rerr)
			}
			if err == nil && !bytes.Equal(Encode(m), Encode(&ResultRows{Entries: rows})) {
				t.Fatal("decodeRows and Decode disagree")
			}
		}
		if err != nil {
			return
		}
		again := Encode(m)
		m2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", TypeName(m.Type()), err)
		}
		if !bytes.Equal(Encode(m2), again) {
			t.Fatalf("%s does not round-trip", TypeName(m.Type()))
		}
	})
}

// BenchmarkResultRows encodes a 4-column result two ways: the batch
// encoder straight from columnar batches, and the entries path (boxed
// entries, SplitRows, WriteMessage per batch) the server took before.
func BenchmarkResultRows(b *testing.B) {
	const n = 8192
	entries := rowsCase(n, 1, 1, 6)
	in := seq.NewIntern()
	batches := batchesOf(b, entries, seq.DefaultBatchSize, in)
	for _, mode := range []string{"batch", "entries"} {
		b.Run(mode, func(b *testing.B) {
			enc := &RowsEncoder{}
			var sink bytes.Buffer
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Reset()
				if mode == "batch" {
					enc.Reset()
					for _, bt := range batches {
						enc.AppendBatch(bt, in)
					}
					for _, f := range enc.Frames() {
						sink.Write(f)
					}
					continue
				}
				boxed := make([]seq.Entry, 0, n)
				for _, bt := range batches {
					boxed = bt.AppendEntries(boxed, in)
				}
				for _, batch := range SplitRows(boxed) {
					if err := WriteMessage(&sink, &ResultRows{Entries: batch}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			rows := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/rows, "B/row")
		})
	}
}
