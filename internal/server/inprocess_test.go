package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestReadFoldsPageCounters: each read's snapshot counters land in the
// sequence's cumulative counters, and Take/Reset partition them.
func TestReadFoldsPageCounters(t *testing.T) {
	srv := testServer(t, Config{}, 200)
	sess := srv.NewSession("t")
	if _, err := sess.Query("select(s, v > 0)", seq.NewSpan(1, 200)); err != nil {
		t.Fatal(err)
	}
	st, err := srv.PageStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.SeqRecords != 200 || st.SeqPages == 0 {
		t.Fatalf("after a full scan: %s", st)
	}
	if taken, _ := srv.TakePageStats("s"); taken != st {
		t.Fatalf("TakePageStats = %s, want %s", taken, st)
	}
	if _, err := sess.Probe(Source{SEQL: "s"}, seq.NewSpan(1, 200), []seq.Pos{7}); err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.PageStats("s"); st.ProbeRecords != 1 || st.SeqRecords != 0 {
		t.Fatalf("after one probe: %s", st)
	}
	srv.ResetPageStats()
	if st, _ := srv.PageStats("s"); st.Pages() != 0 || st.ProbeRecords != 0 {
		t.Fatalf("after reset: %s", st)
	}
	if _, err := srv.PageStats("ghost"); err == nil {
		t.Fatal("unknown sequence must fail")
	}
}

// TestReadRebindsTrees: an algebra tree bound at one epoch reads the
// data current at each later read, and a tree naming a dropped
// sequence fails to bind.
func TestReadRebindsTrees(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	sess := srv.NewSession("t")
	root, err := sess.Bind("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Append("s", 11, seq.Record{seq.Int(11)}); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := sess.Read(Source{Node: root}, seq.NewSpan(1, 20), func(res *core.Result) error {
		out, err := res.Run()
		n = out.Count()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("rebound tree read %d records, want 11", n)
	}
	if _, err := srv.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Read(Source{Node: root}, seq.NewSpan(1, 20), func(*core.Result) error { return nil })
	if se, ok := err.(*Error); !ok || se.Code != wire.CodeNotFound {
		t.Fatalf("read of a dropped sequence = %v, want %s", err, wire.CodeNotFound)
	}
}

// TestDropSequencePublishesEpoch: a drop advances the epoch, invalidates
// the views reading the base from it, and leaves other views alone.
func TestDropSequencePublishesEpoch(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	if err := srv.CreateSequence("o", testData(t, 10), storage.KindSparse); err != nil {
		t.Fatal(err)
	}
	sess := srv.NewSession("t")
	for name, text := range map[string]string{"vs": "select(s, v > 3)", "vo": "select(o, v > 3)"} {
		if _, _, err := sess.Materialize(name, text, seq.NewSpan(1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Epoch()
	epoch, err := srv.DropSequence("s")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != before+1 || srv.Epoch() != epoch {
		t.Fatalf("drop published epoch %d (current %d), want %d", epoch, srv.Epoch(), before+1)
	}
	for _, vc := range srv.ViewCounters() {
		if invalid := vc.InvalidFrom != 0; invalid != (vc.Name == "vs") {
			t.Fatalf("view %s InvalidFrom = %d after dropping s", vc.Name, vc.InvalidFrom)
		}
	}
	if _, err := srv.DropSequence("s"); err == nil {
		t.Fatal("double drop must fail")
	}
}

// TestSetOptionsDisablesMaintenance: the ablation option reaches view
// maintenance, which then invalidates instead of stitching.
func TestSetOptionsDisablesMaintenance(t *testing.T) {
	srv := testServer(t, Config{}, 10)
	sess := srv.NewSession("t")
	if _, _, err := sess.Materialize("v", "select(s, v > 3)", seq.NewSpan(1, 20)); err != nil {
		t.Fatal(err)
	}
	srv.SetOptions(core.Options{DisableViewMaintenance: true})
	if _, err := srv.Append("s", 11, seq.Record{seq.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if reps := srv.TakeMaintenanceReports(); len(reps) != 0 {
		t.Fatalf("ablated maintenance reported %v", reps)
	}
	if vcs := srv.ViewCounters(); len(vcs) != 1 || vcs[0].InvalidFrom == 0 {
		t.Fatalf("view not invalidated by the append: %+v", vcs)
	}
}
