package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BatchPoint is one (hot path, input size) cell of the batch-vs-scalar
// head-to-head: the same physical plan executed through the
// record-at-a-time interpreter and through the vectorized batch plane.
type BatchPoint struct {
	Path string // which experiment's hot path the plan reproduces
	N    int64  // input size (records)
	Rows int    // output rows (identical across planes, checked)

	ScalarNsOp     int64 // scalar wall time per run
	ScalarAllocsOp int64 // scalar heap allocations per run
	BatchNsOp      int64 // batch wall time per run
	BatchAllocsOp  int64 // batch heap allocations per run

	Speedup     float64 // ScalarNsOp / BatchNsOp
	AllocsRatio float64 // ScalarAllocsOp / BatchAllocsOp

	// Par4NsOp is the batch plane with K=4 parallel workers (0 when the
	// plan is not partitionable); Speedup4 = ScalarNsOp / Par4NsOp. The
	// single-stream Speedup isolates vectorization; this column shows the
	// two tentpole halves — batches and partitioned workers — composed.
	Par4NsOp int64
	Speedup4 float64
}

// InternPoint is one cell of the intern-table sweep: a fixed-size scan
// over a string column with a controlled number of distinct values.
type InternPoint struct {
	Distinct int   // distinct strings in the column
	Rows     int64 // records scanned

	StrHits, StrMisses int64
	RecHits, RecMisses int64
	StrHitRate         float64
	RecHitRate         float64
}

// BatchBench is the payload of seqbench -batch (BENCH_batch.json).
type BatchBench struct {
	Points []BatchPoint
	Intern []InternPoint
}

// measureRun times fn and counts its heap allocations, averaged over
// iters runs after one warmup.
func measureRun(iters int, fn func() error) (nsOp, allocsOp int64, err error) {
	if err := fn(); err != nil { // warmup: caches, first-batch allocations
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed.Nanoseconds() / int64(iters),
		int64(after.Mallocs-before.Mallocs) / int64(iters), nil
}

// e1HotPath builds the E1 sequence engine's hot path at size n: the
// exact physical plan the optimizer picks for Example 1.1's
// "project(select(compose(volcanos, prev(quakes)), strength > 7.0), name)" —
// a lock-step compose of the volcano series against the Cache-Strategy-B
// value offset of the quake series, with the strength filter pushed below
// the compose and the volcano name projected on top.
func e1HotPath(n int64) (exec.Plan, seq.Span, error) {
	span := seq.NewSpan(1, n*4)
	quakes, volcanos, err := workload.Monitoring(span, int(n), int(n)/10, n)
	if err != nil {
		return nil, seq.Span{}, err
	}
	qs, err := storage.FromMaterialized(quakes, storage.KindSparse, 0)
	if err != nil {
		return nil, seq.Span{}, err
	}
	vs, err := storage.FromMaterialized(volcanos, storage.KindSparse, 0)
	if err != nil {
		return nil, seq.Span{}, err
	}
	prev, err := exec.NewValueOffsetIncremental(exec.NewLeaf("quakes", qs, seq.AllSpan), -1, span)
	if err != nil {
		return nil, seq.Span{}, err
	}
	strength, err := expr.NewCol(workload.QuakeSchema, "strength")
	if err != nil {
		return nil, seq.Span{}, err
	}
	pred, err := expr.NewBin(expr.OpGt, strength, expr.Literal(seq.Float(7)))
	if err != nil {
		return nil, seq.Span{}, err
	}
	sel := exec.NewSelect(prev, pred)
	schema, err := workload.VolcSchema.Concat(workload.QuakeSchema, "v", "q")
	if err != nil {
		return nil, seq.Span{}, err
	}
	comp, err := exec.NewCompose(
		exec.NewLeaf("volcanos", vs, seq.AllSpan), sel, nil, schema, exec.ComposeLockStep)
	if err != nil {
		return nil, seq.Span{}, err
	}
	name, err := expr.NewCol(schema, "name")
	if err != nil {
		return nil, seq.Span{}, err
	}
	proj, err := exec.NewProject(comp, []exec.ProjExpr{{Expr: name, Name: "name"}})
	if err != nil {
		return nil, seq.Span{}, err
	}
	return proj, span, nil
}

// e4HotPath builds the E4 hot path at size n: the O(1)-maintenance
// sliding moving sum over a dense stock series (Figure 5.A plus the
// incremental accumulator), window 32.
func e4HotPath(n int64) (exec.Plan, seq.Span, error) {
	span := seq.NewSpan(1, n)
	data, err := workload.Stock(workload.StockConfig{Name: "ibm", Span: span, Density: 1, Seed: 21})
	if err != nil {
		return nil, seq.Span{}, err
	}
	store, err := storage.FromMaterialized(data, storage.KindDense, 0)
	if err != nil {
		return nil, seq.Span{}, err
	}
	spec := algebra.AggSpec{Func: algebra.AggSum, Arg: 1, Window: algebra.Trailing(32), As: "sum"}
	agg, err := exec.NewAggSliding(exec.NewLeaf("ibm", store, seq.AllSpan), spec, span)
	if err != nil {
		return nil, seq.Span{}, err
	}
	return agg, span, nil
}

// scalarRun drains the plan's record-at-a-time Scan cursor and
// materializes it: the reference implementation the batch plane is
// timed against.
func scalarRun(p exec.Plan, span seq.Span) (*seq.Materialized, error) {
	entries, err := seq.Collect(p.Scan(span))
	if err != nil {
		return nil, err
	}
	return seq.NewMaterialized(p.Info().Schema, entries)
}

func batchPoint(path string, n int64, iters int, mk func(int64) (exec.Plan, seq.Span, error)) (BatchPoint, error) {
	p, span, err := mk(n)
	if err != nil {
		return BatchPoint{}, err
	}
	// Cross-check the planes agree before timing anything.
	want, err := scalarRun(p, span)
	if err != nil {
		return BatchPoint{}, err
	}
	got, err := exec.Run(p, span, seq.NewBatchCtx())
	if err != nil {
		return BatchPoint{}, err
	}
	if got.Count() != want.Count() {
		return BatchPoint{}, fmt.Errorf("batch bench %s n=%d: planes disagree (%d vs %d rows)",
			path, n, got.Count(), want.Count())
	}
	pt := BatchPoint{Path: path, N: n, Rows: want.Count()}
	pt.ScalarNsOp, pt.ScalarAllocsOp, err = measureRun(iters, func() error {
		_, err := scalarRun(p, span)
		return err
	})
	if err != nil {
		return BatchPoint{}, err
	}
	pt.BatchNsOp, pt.BatchAllocsOp, err = measureRun(iters, func() error {
		_, err := exec.Run(p, span, seq.NewBatchCtx())
		return err
	})
	if err != nil {
		return BatchPoint{}, err
	}
	if pt.BatchNsOp > 0 {
		pt.Speedup = float64(pt.ScalarNsOp) / float64(pt.BatchNsOp)
	}
	if pt.BatchAllocsOp > 0 {
		pt.AllocsRatio = float64(pt.ScalarAllocsOp) / float64(pt.BatchAllocsOp)
	}
	// Composed point: batch plane with K=4 partitioned workers. Skipped
	// (left zero) when the plan does not partition at this size.
	if d, err := parallel.ForceK(p, span, 4); err == nil {
		pgot, err := parallel.Run(p, span, d, seq.NewBatchCtx())
		if err == nil && pgot.Count() == want.Count() {
			pt.Par4NsOp, _, err = measureRun(iters, func() error {
				_, err := parallel.Run(p, span, d, seq.NewBatchCtx())
				return err
			})
			if err == nil && pt.Par4NsOp > 0 {
				pt.Speedup4 = float64(pt.ScalarNsOp) / float64(pt.Par4NsOp)
			}
		}
	}
	return pt, nil
}

// internPoint scans n records whose string column cycles through
// distinct values and reports the run's intern-table hit rates.
func internPoint(distinct int, n int64) (InternPoint, error) {
	schema := seq.MustSchema(
		seq.Field{Name: "sym", Type: seq.TString},
		seq.Field{Name: "px", Type: seq.TFloat},
	)
	syms := make([]string, distinct)
	for i := range syms {
		syms[i] = fmt.Sprintf("sym-%04d", i)
	}
	es := make([]seq.Entry, 0, n)
	for p := int64(1); p <= n; p++ {
		es = append(es, seq.Entry{Pos: p, Rec: seq.Record{
			seq.Str(syms[int(p)%distinct]), seq.Float(float64(p % 97)),
		}})
	}
	m, err := seq.NewMaterialized(schema, es)
	if err != nil {
		return InternPoint{}, err
	}
	st, err := storage.FromMaterialized(m, storage.KindSparse, 0)
	if err != nil {
		return InternPoint{}, err
	}
	px, err := expr.NewCol(schema, "px")
	if err != nil {
		return InternPoint{}, err
	}
	pred, err := expr.NewBin(expr.OpGe, px, expr.Literal(seq.Float(0)))
	if err != nil {
		return InternPoint{}, err
	}
	plan := exec.NewSelect(exec.NewLeaf("s", st, seq.AllSpan), pred)
	ctx := seq.NewBatchCtx()
	if _, err := exec.Run(plan, seq.NewSpan(1, n), ctx); err != nil {
		return InternPoint{}, err
	}
	is := ctx.Intern.Stats()
	pt := InternPoint{
		Distinct: distinct, Rows: n,
		StrHits: is.StrHits, StrMisses: is.StrMisses,
		RecHits: is.RecHits, RecMisses: is.RecMisses,
	}
	if t := is.StrHits + is.StrMisses; t > 0 {
		pt.StrHitRate = float64(is.StrHits) / float64(t)
	}
	if t := is.RecHits + is.RecMisses; t > 0 {
		pt.RecHitRate = float64(is.RecHits) / float64(t)
	}
	return pt, nil
}

// BatchBenchmark measures the vectorized data plane against the scalar
// interpreter on the E1 and E4 hot paths, then sweeps the intern table's
// hit rate against value duplication.
func BatchBenchmark(quick bool) (*BatchBench, error) {
	sizes := []int64{1000, 8000, 50000}
	iters := 20
	internRows := int64(50000)
	distincts := []int{1, 4, 64, 1024}
	if quick {
		sizes = []int64{1000, 8000}
		iters = 3
		internRows = 5000
		distincts = []int{4, 64}
	}
	b := &BatchBench{}
	for _, n := range sizes {
		for _, hp := range []struct {
			path string
			mk   func(int64) (exec.Plan, seq.Span, error)
		}{{"E1", e1HotPath}, {"E4", e4HotPath}} {
			pt, err := batchPoint(hp.path, n, iters, hp.mk)
			if err != nil {
				return nil, err
			}
			b.Points = append(b.Points, pt)
		}
	}
	for _, d := range distincts {
		pt, err := internPoint(d, internRows)
		if err != nil {
			return nil, err
		}
		b.Intern = append(b.Intern, pt)
	}
	return b, nil
}

// RenderBatch formats the benchmark as the tables seqbench prints.
func RenderBatch(b *BatchBench) string {
	var sb strings.Builder
	sb.WriteString("batch execution: scalar interpreter vs vectorized batches\n")
	sb.WriteString("path        n     rows  scalar_ns/op   batch_ns/op  speedup  scalar_allocs  batch_allocs    par4_ns/op  speedup4\n")
	for _, p := range b.Points {
		par4, sp4 := "-", "-"
		if p.Par4NsOp > 0 {
			par4 = fmt.Sprintf("%d", p.Par4NsOp)
			sp4 = fmt.Sprintf("%.1fx", p.Speedup4)
		}
		fmt.Fprintf(&sb, "%-4s %8d %8d %13d %13d %7.1fx %14d %13d %13s %9s\n",
			p.Path, p.N, p.Rows, p.ScalarNsOp, p.BatchNsOp, p.Speedup,
			p.ScalarAllocsOp, p.BatchAllocsOp, par4, sp4)
	}
	sb.WriteString("\nintern table hit rate vs value duplication\n")
	sb.WriteString("distinct     rows   str_hits str_misses  str_rate   rec_hits rec_misses  rec_rate\n")
	for _, p := range b.Intern {
		fmt.Fprintf(&sb, "%8d %8d %10d %10d %9.3f %10d %10d %9.3f\n",
			p.Distinct, p.Rows, p.StrHits, p.StrMisses, p.StrHitRate,
			p.RecHits, p.RecMisses, p.RecHitRate)
	}
	return sb.String()
}
