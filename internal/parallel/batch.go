package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
)

// RunBatch is the vectorized counterpart of Run: DrainBatches into
// entries, materialized.
func RunBatch(p exec.Plan, span seq.Span, d *Decision, ctx *seq.BatchCtx) (*seq.Materialized, error) {
	return exec.Collect(p.Info().Schema, span, func(sink func(seq.Span) exec.BatchSink) error {
		return DrainBatches(p, span, d, ctx, sink)
	})
}

// DrainBatches runs the plan in batch mode over span and streams its rows
// into sinks: sink is called once per partition, in partition order,
// before any worker starts, and each worker drains its partition into
// its own sink. Each worker drives the batch pipeline with a private
// forked context — same batch size, its own intern table, so handle
// spaces never cross goroutines — and the per-worker batch and intern
// counters are folded back into ctx after the join. The legality
// argument is unchanged (batch evaluation produces the identical record
// stream, so partition concatenation still reconstructs the serial
// scan); a serial decision or an uncloneable plan drains one sink over
// the whole span under ctx.
func DrainBatches(p exec.Plan, span seq.Span, d *Decision, ctx *seq.BatchCtx, sink func(seq.Span) exec.BatchSink) error {
	var clones []exec.Plan
	if d.Parallel() {
		clones, _ = CloneWorkers(p, len(d.Partitions))
	}
	if clones == nil {
		_, err := exec.DrainBatches(exec.BatchScanOf(p, span, ctx), ctx, sink(span))
		return err
	}
	k := len(d.Partitions)
	sinks := make([]exec.BatchSink, k)
	for i, part := range d.Partitions {
		sinks[i] = sink(part)
	}
	rows := make([]seq.Span, k)
	errs := make([]error, k)
	wctxs := make([]*seq.BatchCtx, k)
	var wg sync.WaitGroup
	for i, part := range d.Partitions {
		wctxs[i] = ctx.Fork()
		wg.Add(1)
		go func(i int, part seq.Span) {
			defer wg.Done()
			rows[i], errs[i] = exec.DrainBatches(exec.BatchScanOf(clones[i], part, wctxs[i]), wctxs[i], sinks[i])
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, w := range wctxs {
		ctx.AbsorbCounters(w)
	}
	// Each worker checked its own rows; the partitions' rows must also
	// follow one another.
	last := seq.EmptySpan
	for _, r := range rows {
		if r.IsEmpty() {
			continue
		}
		if !last.IsEmpty() && r.Start <= last.End {
			return fmt.Errorf("parallel: partition output not strictly ascending: %d after %d", r.Start, last.End)
		}
		last = r
	}
	return nil
}

// RunAnalyzeBatch is the vectorized counterpart of RunAnalyze: per-worker
// instrumentation shards, per-worker stats forks for exact concurrent
// page attribution, and per-worker batch contexts whose counters — batch
// tallies and intern hit/miss totals — fold into ctx at the merge, so a
// partitioned EXPLAIN ANALYZE reports run-wide interning behavior.
func RunAnalyzeBatch(p exec.Plan, span seq.Span, d *Decision, pred func(exec.Plan) exec.PredictedCost, ctx *seq.BatchCtx) (*seq.Materialized, *exec.NodeMetrics, []PartitionMetrics, error) {
	if !d.Parallel() {
		return nil, nil, nil, fmt.Errorf("parallel: RunAnalyzeBatch requires a parallel decision")
	}
	if pred == nil {
		pred = func(exec.Plan) exec.PredictedCost { return exec.PredictedCost{} }
	}
	k := len(d.Partitions)
	results := make([]*exec.EntrySink, k)
	errs := make([]error, k)
	roots := make([]*exec.NodeMetrics, k)
	parts := make([]PartitionMetrics, k)
	forks := make([][]statsFork, k)
	wctxs := make([]*seq.BatchCtx, k)
	var wg sync.WaitGroup
	for i, part := range d.Partitions {
		clone, orig, err := exec.ClonePlan(p)
		if err != nil {
			return nil, nil, nil, err
		}
		exec.ReplaceLeafSeqs(clone, func(l *exec.Leaf) {
			if st, ok := l.Seq.(storage.StatsForker); ok {
				priv := &storage.Stats{}
				forks[i] = append(forks[i], statsFork{shared: st.Stats(), priv: priv})
				l.Seq = st.Fork(priv)
			}
		})
		predClone := func(cp exec.Plan) exec.PredictedCost {
			if o, ok := orig[cp]; ok {
				return pred(o)
			}
			return exec.PredictedCost{}
		}
		instr, root := exec.Instrument(clone, predClone)
		roots[i] = root
		wctxs[i] = ctx.Fork()
		results[i] = exec.NewEntrySink(part)
		wg.Add(1)
		go func(i int, part seq.Span) {
			defer wg.Done()
			start := time.Now()
			_, errs[i] = exec.DrainBatches(exec.BatchScanOf(instr, part, wctxs[i]), wctxs[i], results[i])
			parts[i] = PartitionMetrics{Span: part, Rows: int64(len(results[i].Entries)), Elapsed: time.Since(start)}
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	for i := range parts {
		var pages storage.StatsSnapshot
		for _, f := range forks[i] {
			snap := f.priv.Snapshot()
			pages = pages.Add(snap)
			f.shared.AddSnapshot(snap)
		}
		parts[i].Pages = pages
		roots[i].Finalize()
	}
	for _, w := range wctxs {
		ctx.AbsorbCounters(w)
	}
	merged := roots[0]
	for _, r := range roots[1:] {
		if err := merged.Merge(r); err != nil {
			return nil, nil, nil, err
		}
	}
	total := 0
	for _, r := range results {
		total += len(r.Entries)
	}
	all := make([]seq.Entry, 0, total)
	for _, r := range results {
		all = append(all, r.Entries...)
	}
	out, err := seq.FromSortedEntries(p.Info().Schema, all)
	if err != nil {
		return nil, nil, nil, err
	}
	return out, merged, parts, nil
}
