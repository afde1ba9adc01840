package seqproc

import (
	"testing"

	"repro/internal/matview"
	"repro/internal/seq"
)

// retentionDB opens a durable database holding s (Sparse, v = 1..n).
func retentionDB(t *testing.T, n int) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := MustSchema(Field{Name: "v", Type: TInt})
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Pos: Pos(i + 1), Rec: Record{Int(int64(i + 1))}}
	}
	if err := db.CreateSequence("s", MustData(schema, entries), Sparse); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDurableWritesReclaimViewGenerations: on a durable database each
// stitch publishes a new view generation; the one it supersedes must go
// with the write, not linger until GC, or the registry (and every read's
// view slice) grows with the number of appends.
func TestDurableWritesReclaimViewGenerations(t *testing.T) {
	db := retentionDB(t, 200)
	// A trailing window reaches 39 positions past s's end, so every
	// append below lands inside the view.
	if _, err := db.Materialize("sum40", "sum(s, v, 40)", seq.NewSpan(1, 239)); err != nil {
		t.Fatal(err)
	}
	want := len(db.srv.ViewCounters())
	stitches := 0
	for p := 201; p <= 230; p++ {
		if err := db.Append("s", Pos(p), Record{Int(int64(p))}); err != nil {
			t.Fatal(err)
		}
		for _, r := range db.TakeMaintenanceReports() {
			if r.Action == matview.MaintainStitch {
				stitches++
			}
		}
		if got := len(db.srv.ViewCounters()); got != want {
			t.Fatalf("after appending %d: registry holds %d view generations, want %d", p, got, want)
		}
	}
	if stitches == 0 {
		t.Fatal("no append stitched the view")
	}
}

// TestDurableRematerializeAfterInvalidation: a view name freed by a write
// — dropping its base, or appending with maintenance off — can be
// materialized again at once on a durable database.
func TestDurableRematerializeAfterInvalidation(t *testing.T) {
	db := retentionDB(t, 20)
	const view = "select(s, v > 5)"
	if _, err := db.Materialize("w", view, seq.NewSpan(1, 40)); err != nil {
		t.Fatal(err)
	}
	if err := db.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	schema := MustSchema(Field{Name: "v", Type: TInt})
	if err := db.CreateSequence("s", MustData(schema, []Entry{{Pos: 1, Rec: Record{Int(9)}}}), Sparse); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("w", view, seq.NewSpan(1, 40)); err != nil {
		t.Fatalf("re-materialize after drop and re-create: %v", err)
	}
	db.SetViewMaintenance(false)
	if err := db.Append("s", 2, Record{Int(10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("w", view, seq.NewSpan(1, 40)); err != nil {
		t.Fatalf("re-materialize after an unmaintained append: %v", err)
	}
	if vs := db.ListViews(); len(vs) != 1 || vs[0].Records != 2 {
		t.Fatalf("views = %+v, want w with 2 records", vs)
	}
}
