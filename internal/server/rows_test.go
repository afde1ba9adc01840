package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
)

// rowsServer holds the sequences the wire-rows differential tests read:
// s (one int column at 1..20000), t (interned strings: a name drawn from
// five, an int, a float and a bool at 1..20000) and big (400 records of
// 4 KiB strings, a result over 1 MiB).
func rowsServer(t *testing.T) *Server {
	t.Helper()
	srv := testServer(t, Config{Verify: true}, 20000)
	schema := seq.MustSchema(
		seq.Field{Name: "name", Type: seq.TString},
		seq.Field{Name: "n", Type: seq.TInt},
		seq.Field{Name: "x", Type: seq.TFloat},
		seq.Field{Name: "ok", Type: seq.TBool},
	)
	names := []string{"ibm", "dec", "hp", "sun", "søn"}
	var mixed, big []seq.Entry
	for i := 1; i <= 20000; i++ {
		mixed = append(mixed, seq.Entry{Pos: seq.Pos(i), Rec: seq.Record{
			seq.Str(names[i%len(names)]), seq.Int(int64(i % 97)), seq.Float(float64(i) / 8), seq.Bool(i%3 == 0)}})
	}
	for i := 1; i <= 400; i++ {
		big = append(big, seq.Entry{Pos: seq.Pos(i), Rec: seq.Record{
			seq.Str(strings.Repeat(names[i%len(names)], 1024)), seq.Int(int64(i)), seq.Float(0.5), seq.Bool(true)}})
	}
	for name, entries := range map[string][]seq.Entry{"t": mixed, "big": big} {
		data, err := seq.NewMaterialized(schema, entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.CreateSequence(name, data, storage.KindSparse); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestWireRowsMatchSessionQuery runs queries over the wire, where rows
// are encoded straight from the plan's batches, and through
// Session.Query, which materializes them, and requires the same answer.
func TestWireRowsMatchSessionQuery(t *testing.T) {
	srv := rowsServer(t)
	addr := startTCP(t, srv)
	cases := []struct {
		name, option, value string
		seql                string
		lo, hi              int64
		parallel            bool // the plan must be partitioned, K=3
	}{
		{"serial", "parallelism", "1", "select(s, v > 10)", 1, 20000, false},
		{"parallelism=3", "parallelism", "3", "select(s, v > 10)", 1, 20000, true},
		{"reopt on", "reopt", "on", "select(s, v > 10)", 1, 20000, false},
		{"interned strings", "parallelism", "1", "select(t, n > 5)", 1, 3000, false},
		{"interned strings, parallelism=3", "parallelism", "3", "select(t, n > 5)", 1, 20000, true},
		{"empty", "parallelism", "1", "select(s, v > 1000000)", 1, 20000, false},
		{"over 1 MiB", "parallelism", "1", "select(big, n > 0)", 1, 400, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := wire.Dial(addr, "rows-test")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.SetOption(tc.option, tc.value); err != nil {
				t.Fatal(err)
			}
			sess := srv.NewSession("rows-test")
			if _, err := sess.SetOption(tc.option, tc.value); err != nil {
				t.Fatal(err)
			}
			span := seq.NewSpan(tc.lo, tc.hi)
			text, _, err := sess.Explain(tc.seql, span)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(text, "parallel: K=3") != tc.parallel {
				t.Fatalf("want a partitioned plan: %v; plan:\n%s", tc.parallel, text)
			}
			want, err := sess.Query(tc.seql, span)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(tc.seql, tc.lo, tc.hi)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != uint64(len(got.Entries)) {
				t.Fatalf("ResultDone.Rows = %d, %d entries arrived", got.Rows, len(got.Entries))
			}
			if len(got.Entries) != len(want.Entries) {
				t.Fatalf("wire returned %d rows, Session.Query %d", len(got.Entries), len(want.Entries))
			}
			if !reflect.DeepEqual(got.Entries, want.Entries) || !reflect.DeepEqual(got.Fields, want.Fields) {
				t.Fatal("wire answer differs from Session.Query")
			}
		})
	}
}

// readRawResponse sends one request on a raw connection and returns the
// bodies of the response frames up to and including the first of type
// last.
func readRawResponse(t *testing.T, nc net.Conn, r *bufio.Reader, req wire.Message, last wire.Type) [][]byte {
	t.Helper()
	if err := wire.WriteMessage(nc, req); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(r, body); err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
		if wire.Type(body[0]) == last {
			return out
		}
	}
}

// TestSerialRowsFramesMatchSplitRows requires a serial query's ResultRows
// frames to be byte-identical to Encode of the SplitRows batches of the
// materialized answer: the batch encoder changes how frames are made,
// not what they hold.
func TestSerialRowsFramesMatchSplitRows(t *testing.T) {
	srv := rowsServer(t)
	addr := startTCP(t, srv)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(nc)
	readRawResponse(t, nc, r, &wire.Hello{Version: wire.ProtocolVersion, Client: "raw"}, wire.THelloAck)
	readRawResponse(t, nc, r, &wire.SetOption{Name: "parallelism", Value: "1"}, wire.TReady)
	sess := srv.NewSession("raw")
	if _, err := sess.SetOption("parallelism", "1"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		seql   string
		lo, hi int64
	}{
		{"select(s, v > 10)", 1, 20000},
		{"select(t, n > 5)", 1, 3000},
		{"select(big, n > 0)", 1, 400},
	} {
		want, err := sess.Query(q.seql, seq.NewSpan(q.lo, q.hi))
		if err != nil {
			t.Fatal(err)
		}
		var wantFrames [][]byte
		for _, b := range wire.SplitRows(want.Entries) {
			wantFrames = append(wantFrames, wire.Encode(&wire.ResultRows{Entries: b}))
		}
		var gotFrames [][]byte
		for _, body := range readRawResponse(t, nc, r, &wire.Query{SEQL: q.seql, Start: q.lo, End: q.hi}, wire.TReady) {
			if wire.Type(body[0]) == wire.TResultRows {
				gotFrames = append(gotFrames, body)
			}
		}
		if len(gotFrames) != len(wantFrames) {
			t.Fatalf("%s: %d ResultRows frames, want %d", q.seql, len(gotFrames), len(wantFrames))
		}
		for i := range gotFrames {
			if !bytes.Equal(gotFrames[i], wantFrames[i]) {
				t.Fatalf("%s: frame %d differs from Encode of its SplitRows batch", q.seql, i)
			}
		}
	}
}

// disorderCursor yields two batches whose positions run backwards across
// the boundary, as a broken operator would.
type disorderCursor struct {
	schema *seq.Schema
	in     *seq.Intern
	n      int
}

func (c *disorderCursor) NextBatch() (*seq.Batch, bool) {
	if c.n == 2 {
		return nil, false
	}
	b := seq.NewBatchFor(c.schema, 4)
	start := seq.Pos(10 - 5*c.n) // 10..12, then 5..7
	for i := seq.Pos(0); i < 3; i++ {
		if err := b.AppendRow(start+i, seq.Record{seq.Int(int64(i))}, c.in); err != nil {
			panic(err)
		}
	}
	c.n++
	return b, true
}

func (c *disorderCursor) Err() error   { return nil }
func (c *disorderCursor) Close() error { return nil }

// TestDisorderedBatchesAreExecErrors drains a cursor emitting a
// non-ascending position into a row encoder under the query path's
// worker slot: the drain must fail and the failure classify as CodeExec.
func TestDisorderedBatchesAreExecErrors(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	sess := srv.NewSession("disorder")
	_, err := sess.runQuery("s", seq.NewSpan(1, 10), func(res *core.Result) error {
		ctx := seq.NewBatchCtx()
		cur := &disorderCursor{schema: res.Plan.Info().Schema, in: ctx.Intern}
		_, err := exec.DrainBatches(cur, ctx, &wire.RowsEncoder{})
		return err
	})
	var se *Error
	if !errors.As(err, &se) || se.Code != wire.CodeExec {
		t.Fatalf("disordered rows gave %v, want a CodeExec error", err)
	}
	if !strings.Contains(fmt.Sprint(err), "ascending") {
		t.Fatalf("error does not name the disorder: %v", err)
	}
}

// TestSlowReaderDoesNotHoldWorkerSlot sends a query whose result (about
// 8 MiB) overflows the socket buffers and never reads it, on a server
// with one worker slot. The rows are encoded under the slot but sent
// after it is released, so a second client's query still runs.
func TestSlowReaderDoesNotHoldWorkerSlot(t *testing.T) {
	srv := testServer(t, Config{Workers: 1}, 10)
	schema := seq.MustSchema(seq.Field{Name: "text", Type: seq.TString})
	var big []seq.Entry
	for i := 1; i <= 2000; i++ {
		big = append(big, seq.Entry{Pos: seq.Pos(i), Rec: seq.Record{seq.Str(strings.Repeat(string(rune('a'+i%26)), 4096))}})
	}
	data, err := seq.NewMaterialized(schema, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateSequence("big", data, storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	const bigQuery = `select(big, text != "")`
	if res, err := srv.NewSession("check").Query(bigQuery, seq.NewSpan(1, 2000)); err != nil || len(res.Entries) != 2000 {
		t.Fatalf("big query: %v", err)
	}
	addr := startTCP(t, srv)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(nc)
	readRawResponse(t, nc, r, &wire.Hello{Version: wire.ProtocolVersion, Client: "slow"}, wire.THelloAck)
	if err := wire.WriteMessage(nc, &wire.Query{SEQL: bigQuery, Start: 1, End: 2000}); err != nil {
		t.Fatal(err)
	}

	c, err := wire.Dial(addr, "fast")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		res, err := c.Query("select(s, v > 5)", 1, 10)
		if err == nil && len(res.Entries) != 5 {
			err = fmt.Errorf("got %d rows, want 5", len(res.Entries))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a query waited on a worker slot held by a client that does not read")
	}
}
