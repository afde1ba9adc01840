package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/seq"
	"repro/internal/storage"
)

// CloneWorkers deep-copies the plan once per partition. Every copy has
// private operator caches and materialization state; the invariant
// verifier checks the copies share no mutable cache with each other or
// with the original.
func CloneWorkers(p exec.Plan, k int) ([]exec.Plan, error) {
	clones := make([]exec.Plan, k)
	for i := range clones {
		c, _, err := exec.ClonePlan(p)
		if err != nil {
			return nil, err
		}
		clones[i] = c
	}
	return clones, nil
}

// Run evaluates the plan over the decision's partitions and materializes
// the concatenated result: DrainBatches into entries.
func Run(p exec.Plan, span seq.Span, d *Decision, ctx *seq.BatchCtx) (*seq.Materialized, error) {
	return exec.Collect(p.Info().Schema, span, func(sink func(seq.Span) exec.BatchSink) error {
		return DrainBatches(p, span, d, ctx, sink)
	})
}

// DrainBatches runs the plan over span and streams its rows into sinks:
// sink is called once per partition, in partition order, before any
// worker starts, and each worker drains its partition into its own sink
// on a private plan clone. The legality argument is that batch
// evaluation of a sub-span is the restriction of the full scan to it,
// so partition concatenation reconstructs the serial stream; a serial
// decision or an uncloneable plan drains one sink over the whole span
// under ctx.
func DrainBatches(p exec.Plan, span seq.Span, d *Decision, ctx *seq.BatchCtx, sink func(seq.Span) exec.BatchSink) error {
	var clones []exec.Plan
	if d.Parallel() {
		clones, _ = CloneWorkers(p, len(d.Partitions))
	}
	if clones == nil {
		_, err := exec.DrainBatches(exec.BatchScanOf(p, span, ctx), ctx, sink(span))
		return err
	}
	_, err := drainPartitions(clones, d.Partitions, ctx, sink)
	return err
}

// drainPartitions is the partition worker loop: worker i drains plans[i]
// over parts[i] into the sink obtained for that partition. Each worker
// drives the batch pipeline with a private forked context — same batch
// size, its own intern table, so handle spaces never cross goroutines —
// and the per-worker batch and intern counters are folded back into ctx
// after the join. It returns each worker's span, row count and wall
// time.
func drainPartitions(plans []exec.Plan, parts []seq.Span, ctx *seq.BatchCtx, sink func(seq.Span) exec.BatchSink) ([]PartitionMetrics, error) {
	k := len(parts)
	sinks := make([]exec.BatchSink, k)
	for i, part := range parts {
		sinks[i] = sink(part)
	}
	rows := make([]seq.Span, k)
	errs := make([]error, k)
	wctxs := make([]*seq.BatchCtx, k)
	pms := make([]PartitionMetrics, k)
	var wg sync.WaitGroup
	for i, part := range parts {
		wctxs[i] = ctx.Fork()
		wg.Add(1)
		go func(i int, part seq.Span) {
			defer wg.Done()
			start := time.Now()
			rows[i], errs[i] = exec.DrainBatches(exec.BatchScanOf(plans[i], part, wctxs[i]), wctxs[i], sinks[i])
			pms[i] = PartitionMetrics{Span: part, Rows: wctxs[i].Rows, Elapsed: time.Since(start)}
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
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
			return nil, fmt.Errorf("parallel: partition output not strictly ascending: %d after %d", r.Start, last.End)
		}
		last = r
	}
	return pms, nil
}

// PartitionMetrics is the execution record of one partition worker in
// an instrumented parallel run.
type PartitionMetrics struct {
	// Span is the partition's sub-span.
	Span seq.Span
	// Rows is the number of records the partition emitted.
	Rows int64
	// Pages is the base-store page movement attributed to this worker
	// (exact: each worker meters private stats forks).
	Pages storage.StatsSnapshot
	// Elapsed is the worker's wall-clock time.
	Elapsed time.Duration
}

// statsFork records one worker-private stats block and the shared block
// it must be folded back into on completion.
type statsFork struct {
	shared *storage.Stats
	priv   *storage.Stats
}

// RunAnalyze evaluates the decision's partitions with per-worker
// exec.Instrument shards and merges them deterministically: the result
// entries concatenate in partition order, the per-node metric shards
// sum into one tree mirroring the plan, each worker's page accesses —
// metered against worker-private forks of the base stores, so
// concurrent attribution stays exact — are folded back into the shared
// store counters at completion, and the per-worker batch and intern
// counters fold into ctx, so a partitioned EXPLAIN ANALYZE reports
// run-wide interning behavior. pred supplies the optimizer's per-node
// estimates keyed by the ORIGINAL plan's nodes; the clone mapping
// carries them onto each shard.
func RunAnalyze(p exec.Plan, span seq.Span, d *Decision, pred func(exec.Plan) exec.PredictedCost, ctx *seq.BatchCtx) (*seq.Materialized, *exec.NodeMetrics, []PartitionMetrics, error) {
	if !d.Parallel() {
		return nil, nil, nil, fmt.Errorf("parallel: RunAnalyze requires a parallel decision")
	}
	if pred == nil {
		pred = func(exec.Plan) exec.PredictedCost { return exec.PredictedCost{} }
	}
	k := len(d.Partitions)
	instrs := make([]exec.Plan, k)
	roots := make([]*exec.NodeMetrics, k)
	forks := make([][]statsFork, k)
	for i := range d.Partitions {
		clone, orig, err := exec.ClonePlan(p)
		if err != nil {
			return nil, nil, nil, err
		}
		// Swap each base store for a fork counting into worker-private
		// statistics, so the Metered delta-snapshot attribution inside
		// Instrument never races with the other workers.
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
		instrs[i], roots[i] = exec.Instrument(clone, predClone)
	}
	var parts []PartitionMetrics
	out, err := exec.Collect(p.Info().Schema, span, func(sink func(seq.Span) exec.BatchSink) error {
		var err error
		parts, err = drainPartitions(instrs, d.Partitions, ctx, sink)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Merge step: fold worker fork counters back into the shared store
	// statistics, then finalize and sum the metric shards.
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
	merged := roots[0]
	for _, r := range roots[1:] {
		if err := merged.Merge(r); err != nil {
			return nil, nil, nil, err
		}
	}
	return out, merged, parts, nil
}
