package seqproc_test

import (
	"testing"

	seqproc "repro"
)

// TestLibraryPlansIgnoreRuns: the library shares its engine's cost
// model, but no library read feeds the engine's calibration, so
// repeated instrumented runs leave the chosen plan and its costs as
// they were.
func TestLibraryPlansIgnoreRuns(t *testing.T) {
	db, span := table1TestDB(t)
	q, err := db.Query(table1Query)
	if err != nil {
		t.Fatal(err)
	}
	before, err := q.Explain(span)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := q.RunAnalyze(span); err != nil {
			t.Fatal(err)
		}
	}
	after, err := q.Explain(span)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("plan moved after instrumented runs:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}

// TestQueryNodeSeesAppends: an algebra-tree query is rebound on every
// call, so it reads records appended after it was built.
func TestQueryNodeSeesAppends(t *testing.T) {
	db := seqproc.New()
	db.MustCreateSequence("s", persistData(t, 5), seqproc.Sparse)
	base, err := db.Base("s")
	if err != nil {
		t.Fatal(err)
	}
	q := db.QueryNode(base)
	if err := db.Append("s", 6, seqproc.Record{seqproc.Int(6)}); err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(seqproc.NewSpan(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 6 {
		t.Fatalf("tree query read %d records, want 6", res.Count())
	}
	if err := db.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(seqproc.NewSpan(1, 10)); err == nil {
		t.Fatal("a tree over a dropped sequence must fail to bind")
	}
}
