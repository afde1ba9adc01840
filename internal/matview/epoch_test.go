package matview

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/seq"
)

// epochFixture registers one view over select(base, v > 0) at FromEpoch 3.
func epochFixture(t *testing.T) (*Registry, *View) {
	t.Helper()
	schema, err := seq.NewSchema(seq.Field{Name: "v", Type: seq.TInt})
	if err != nil {
		t.Fatal(err)
	}
	entries := []seq.Entry{
		{Pos: 1, Rec: seq.Record{seq.Int(1)}},
		{Pos: 2, Rec: seq.Record{seq.Int(2)}},
	}
	data, err := seq.NewMaterialized(schema, entries)
	if err != nil {
		t.Fatal(err)
	}
	base := algebra.Base("s", data)
	c, err := expr.NewCol(base.Schema, "v")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.NewBin(expr.OpGt, c, expr.Literal(seq.Int(0)))
	if err != nil {
		t.Fatal(err)
	}
	node, err := algebra.Select(base, pred)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	v, err := r.RegisterAt("hot", node, data, seq.NewSpan(1, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	return r, v
}

func TestViewEpochValidity(t *testing.T) {
	r, v := epochFixture(t)
	if v.ValidAt(2) {
		t.Fatal("view valid before FromEpoch")
	}
	if !v.ValidAt(3) || !v.ValidAt(10) {
		t.Fatal("view invalid inside its window")
	}

	if got := r.At(2).Len(); got != 0 {
		t.Fatalf("At(2) has %d views, want 0", got)
	}
	if got := r.At(3).Len(); got != 1 {
		t.Fatalf("At(3) has %d views, want 1", got)
	}

	marked := r.InvalidateBaseFrom("s", 7)
	if len(marked) != 1 || marked[0] != "hot" {
		t.Fatalf("invalidated %v, want [hot]", marked)
	}
	if !v.ValidAt(6) {
		t.Fatal("reader pinned before the invalidating write lost the view")
	}
	if v.ValidAt(7) {
		t.Fatal("reader pinned at the invalidating write still sees the view")
	}
	// Re-invalidation keeps the earliest epoch.
	if marked := r.InvalidateBaseFrom("s", 9); len(marked) != 0 {
		t.Fatalf("re-invalidation marked %v", marked)
	}
	if got := v.InvalidFrom(); got != 7 {
		t.Fatalf("invalidFrom = %d, want 7", got)
	}

	// GC: a reader could still be pinned at 6 -> keep; once min live
	// reaches 7 the view is unreachable.
	if dropped := r.GC(6); len(dropped) != 0 {
		t.Fatalf("GC(6) dropped %v", dropped)
	}
	if dropped := r.GC(7); len(dropped) != 1 || dropped[0] != "hot" {
		t.Fatalf("GC(7) dropped %v, want [hot]", dropped)
	}
	if r.Len() != 0 {
		t.Fatal("registry not empty after GC")
	}
}

func TestRegistrySliceIsolation(t *testing.T) {
	r, _ := epochFixture(t)
	slice := r.At(5)
	if slice.Len() != 1 {
		t.Fatalf("slice has %d views", slice.Len())
	}
	// Invalidation in the parent does not change a pinned slice's
	// membership: the pinned reader was sliced at epoch 5 < 7.
	r.InvalidateBaseFrom("s", 7)
	if slice.Len() != 1 {
		t.Fatal("pinned slice lost its view after a later invalidation")
	}
	// Dropping from the slice leaves the parent untouched.
	if !slice.Drop("hot") {
		t.Fatal("slice drop failed")
	}
	if r.Len() != 1 {
		t.Fatal("slice drop leaked into the parent registry")
	}
}

// TestRemovalReleasesViews checks that GC, Drop and InvalidateBase
// leave no removed view reachable through the vacated tail of the
// order slice's backing array: a compacted-away view generation must be
// collectable once no reader holds it.
func TestRemovalReleasesViews(t *testing.T) {
	tailClear := func(t *testing.T, r *Registry, op string) {
		t.Helper()
		for i, v := range r.order[len(r.order):cap(r.order)] {
			if v != nil {
				t.Fatalf("%s: order[%d] beyond len %d still holds view %q", op, len(r.order)+i, len(r.order), v.Name)
			}
		}
	}
	build := func(t *testing.T) *Registry {
		r := New()
		for i, name := range []string{"a", "b", "c", "d"} {
			base := testBase(t, "quakes")
			if i%2 == 1 {
				base = testBase(t, "volcanos")
			}
			materialize(t, r, name, sel(t, base, gt(t, col(t, base, "v"), expr.Literal(seq.Float(float64(i))))), seq.NewSpan(1, 20))
		}
		return r
	}

	r := build(t)
	r.InvalidateBaseFrom("quakes", 5)
	if got := r.GC(5); len(got) != 2 {
		t.Fatalf("GC dropped %v, want a and c", got)
	}
	tailClear(t, r, "GC")

	r = build(t)
	r.Drop("a")
	tailClear(t, r, "Drop")

	r = build(t)
	r.InvalidateBase("volcanos")
	tailClear(t, r, "InvalidateBase")
}
