// Package reopt implements mid-run adaptive reoptimization: the ROADMAP
// item "compare predicted vs. actual per-node costs mid-run and switch
// access mode for the remaining span".
//
// A monitored run drains the stream plan's batches through the EXPLAIN
// ANALYZE instrumentation layer and, at every checkpoint interval of
// consumed positions, compares each node's accumulated actual cost
// (pages, cache operations, records — exec.NodeMetrics.ActualCost)
// against its §4.1.2/§4.1.3 prediction pro-rated to the span read so
// far. When the
// relative error exceeds the configured threshold the run stops, asks a
// Planner (implemented by internal/core) to re-run the per-block plan
// generator for the *remaining* span with observed densities substituted
// for the estimates, and splices the new plan in: a stream↔probed,
// Cache-Strategy-A↔B or parallelism-K switch realized mid-run.
//
// The splice is legal by the stream-access property (Thm. 3.1): a scan
// of a sub-span equals the restriction of the full scan to that
// sub-span, so evaluating [start, p] with the old plan and [p+1, end]
// with the new one concatenates to exactly the static result. Operator
// caches are finite and rebuilt per segment, so the consumed prefix is
// never re-read and no cache state crosses the switch (the planlint
// reopt/* invariants check both properties). One more condition is
// required of the Planner: the rebuilt tail must keep the original
// request's evaluation universe (meta.AnnotateSubSpan) — the universe
// is part of the query's semantics, and re-deriving it from the
// remaining span alone would confine universe-dependent operators to a
// smaller hull and change the function being computed.
package reopt

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/seq"
)

// DefaultCheckEvery is the checkpoint interval (in positions) when the
// config does not set one.
const DefaultCheckEvery = 1024

// DefaultThreshold is the relative-error trigger when the config leaves
// Threshold negative (a zero threshold is meaningful: it triggers at
// every checkpoint).
const DefaultThreshold = 0.5

// Config tunes the monitored run.
type Config struct {
	// Enabled turns mid-run reoptimization on (core.Options.Reopt).
	Enabled bool
	// CheckEvery is the checkpoint interval in consumed positions;
	// <= 0 selects DefaultCheckEvery.
	CheckEvery int64
	// Threshold is the relative error |actual − prediction·frac| /
	// max(prediction·frac, 1) beyond which a node triggers a replan.
	// Zero triggers at every checkpoint (the forced-reopt fuzz mode).
	Threshold float64
	// ForceAt, when set, forces one replan decision at the first
	// consumed position ≥ *ForceAt, regardless of interval or
	// threshold — the adversarial-midpoint test hook.
	ForceAt *seq.Pos
	// MaxSwitches caps the number of splices per run; 0 is unlimited.
	MaxSwitches int
	// TailK, when ≥ 2, forces the replanned tail to run span-partitioned
	// at K = TailK where the plan allows it (test hook for the revised-
	// parallelism switch); 0 lets the cost model pick.
	TailK int
}

func (c Config) interval() int64 {
	if c.CheckEvery <= 0 {
		return DefaultCheckEvery
	}
	return c.CheckEvery
}

// Segment is a spliced continuation the Planner produced: a plan for
// exactly the remaining span, its predicted costs, and the partition
// decision for running it.
type Segment struct {
	// Plan evaluates the remaining span.
	Plan exec.Plan
	// Span is the remaining span the plan covers — exactly
	// [consumed+1, end] of the segment being replaced.
	Span seq.Span
	// Pred supplies per-node predicted costs for instrumenting the new
	// plan (nil means no estimates).
	Pred func(exec.Plan) exec.PredictedCost
	// Decision is the partition planner's choice for the tail; a
	// parallel decision ends monitoring and runs the tail on workers.
	Decision *parallel.Decision
	// Mode is the strategy signature of the new plan (StrategySignature).
	Mode string
}

// Planner replans the remaining span when a checkpoint triggers.
// internal/core implements it over the per-block plan generator with
// observed densities substituted for the Step-2 estimates.
type Planner interface {
	// Replan receives the remaining span, the prefix of the current
	// segment's span its live metrics cover (everything it has read,
	// which batch read-ahead may carry past the splice point), and those
	// metrics.
	// A nil Segment (with nil error) declines the splice: the rebuilt
	// plan would not change mode or parallelism, so the current segment
	// keeps running. force demands a Segment regardless (the ForceAt
	// and threshold-0 fuzz modes, which exercise the splice machinery
	// itself).
	Replan(remaining, read seq.Span, metrics *exec.NodeMetrics, force bool) (*Segment, error)
}

// Trigger records why a checkpoint fired.
type Trigger struct {
	// Node is the label of the plan node with the worst relative error.
	Node string
	// Predicted is the node's cumulative predicted stream cost pro-rated
	// to the fraction of the segment span read.
	Predicted float64
	// Actual is the node's accumulated actual cost in the same units.
	Actual float64
	// RelErr is |Actual − Predicted| / max(Predicted, 1).
	RelErr float64
	// Forced marks a ForceAt trigger (threshold not consulted).
	Forced bool
}

// Switch records one splice.
type Switch struct {
	// At is the last position the old segment consumed; the new plan
	// starts at At+1.
	At      seq.Pos
	Trigger Trigger
	// OldMode and NewMode are the strategy signatures on each side.
	OldMode, NewMode string
	// NewK is the partition count of the spliced tail (1 = serial).
	NewK int
}

// SegmentReport describes one executed segment of the run.
type SegmentReport struct {
	Span seq.Span
	// Plan is the (uninstrumented) plan the segment ran.
	Plan exec.Plan
	Mode string
	K    int
	Rows int64
	// Metrics is the finalized metrics tree of a monitored (serial)
	// segment, counting what it read past its splice point within the
	// batch it was cut in; nil for a parallel tail.
	Metrics *exec.NodeMetrics
}

// Report is the reoptimization record of one run.
type Report struct {
	Checkpoints int
	Switches    []Switch
	Segments    []SegmentReport
}

// Switched reports whether the run spliced at least once.
func (r *Report) Switched() bool { return len(r.Switches) > 0 }

// Render returns the report as stable text (counter-derived numbers
// only, no wall-clock), one "reopt:" line per fact, ending with a
// newline. EXPLAIN ANALYZE embeds it.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reopt: %d checkpoint(s), %d switch(es)\n", r.Checkpoints, len(r.Switches))
	for _, s := range r.Switches {
		forced := ""
		if s.Trigger.Forced {
			forced = " forced"
		}
		fmt.Fprintf(&b, "reopt: switch at pos=%d trigger=%s observed=%.2f predicted=%.2f err=%.2f%s: %s -> %s",
			s.At, s.Trigger.Node, s.Trigger.Actual, s.Trigger.Predicted, s.Trigger.RelErr, forced,
			s.OldMode, s.NewMode)
		if s.NewK > 1 {
			fmt.Fprintf(&b, " K=%d", s.NewK)
		}
		b.WriteByte('\n')
	}
	for i, seg := range r.Segments {
		fmt.Fprintf(&b, "reopt: segment %d/%d span=%s rows=%d mode=%s",
			i+1, len(r.Segments), seg.Span, seg.Rows, seg.Mode)
		if seg.K > 1 {
			fmt.Fprintf(&b, " K=%d", seg.K)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StrategySignature summarizes the strategy-bearing operators of a plan
// (compose strategies, value-offset and aggregate algorithms,
// materialization points) in preorder — the old→new mode description of
// a switch.
func StrategySignature(p exec.Plan) string {
	var parts []string
	var walk func(n exec.Plan)
	walk = func(n exec.Plan) {
		l := n.Label()
		if strings.HasPrefix(l, "compose-") || strings.HasPrefix(l, "voffset-") ||
			strings.HasPrefix(l, "agg-") || strings.HasPrefix(l, "materialize") {
			parts = append(parts, l)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if len(parts) == 0 {
		return p.Label()
	}
	return strings.Join(parts, ",")
}

// Run executes the plan over the span under checkpoint monitoring,
// splicing in the planner's replacements when triggers fire, streams
// the output rows into sinks, and returns the reoptimization report.
// sink is called once per output range in position order, as
// parallel.DrainBatches calls it: once per monitored segment, with the
// span the segment is asked to cover (a splice ends it early), and once
// per partition of a parallel tail. pred supplies the optimizer's
// per-node estimates for the initial plan; w prices the observed
// counters in the same units.
//
// Monitored segments run on the batch plane under ctx with a batch size
// of at most one checkpoint interval, which bounds the work a segment
// reads past a checkpoint; ctx.Size is restored for a parallel tail and
// before Run returns. Checkpoints land exactly after an emitted row, so
// a splice always divides the segment span into [start, p] (consumed,
// already emitted) and [p+1, end] (handed to the new plan): the batch
// holding p loses its rows past p and ends at p, and since a batch
// covers its sub-span exactly, by Thm. 3.1 the concatenation is
// record-for-record the static evaluation.
func Run(p exec.Plan, span seq.Span, cfg Config, pred func(exec.Plan) exec.PredictedCost,
	w exec.CostWeights, planner Planner, ctx *seq.BatchCtx, sink func(seq.Span) exec.BatchSink) (*Report, error) {
	rep := &Report{}
	if span.IsEmpty() {
		_, err := exec.DrainBatches(exec.BatchScanOf(p, span, ctx), ctx, sink(span))
		return rep, err
	}
	if !span.Bounded() {
		return nil, fmt.Errorf("reopt: monitored run over unbounded span %v", span)
	}
	size := ctx.Size
	defer func() { ctx.Size = size }()
	if iv := cfg.interval(); iv < int64(size) {
		ctx.Size = int(iv)
	}
	mon := &monitor{cfg: cfg, w: w, planner: planner, rep: rep, forcedPending: cfg.ForceAt != nil}
	seg := &Segment{Plan: p, Span: span, Pred: pred, Mode: StrategySignature(p)}
	for {
		instr, root := exec.Instrument(seg.Plan, seg.Pred)
		cur := &checkpointCursor{
			in: exec.BatchScanOf(instr, seg.Span, ctx), mon: mon, root: root,
			span: seg.Span, nextCheck: seg.Span.Start + cfg.interval() - 1,
		}
		rows := ctx.Rows
		if _, err := exec.DrainBatches(cur, ctx, sink(seg.Span)); err != nil {
			return nil, err
		}
		root.Finalize()
		done := seg.Span
		if cur.next != nil {
			done.End = cur.consumed
		}
		rep.Segments = append(rep.Segments, SegmentReport{
			Span: done, Plan: seg.Plan, Mode: seg.Mode, K: 1,
			Rows: ctx.Rows - rows, Metrics: root,
		})
		next := cur.next
		if next == nil {
			return rep, nil
		}
		newK := 1
		if next.Decision.Parallel() {
			newK = next.Decision.K
		}
		rep.Switches = append(rep.Switches, Switch{
			At: cur.consumed, Trigger: cur.trigger,
			OldMode: seg.Mode, NewMode: next.Mode, NewK: newK,
		})
		if newK > 1 {
			// A revised-parallelism switch: the tail runs span-partitioned
			// on workers; monitoring ends (workers have private metric
			// shards, not a single live tree to checkpoint).
			ctx.Size = size
			rows := ctx.Rows
			if err := parallel.DrainBatches(next.Plan, next.Span, next.Decision, ctx, sink); err != nil {
				return nil, err
			}
			rep.Segments = append(rep.Segments, SegmentReport{
				Span: next.Span, Plan: next.Plan, Mode: next.Mode,
				K: newK, Rows: ctx.Rows - rows,
			})
			return rep, nil
		}
		seg = next
	}
}

// monitor is the run-wide checkpoint state shared by the segments.
type monitor struct {
	cfg           Config
	w             exec.CostWeights
	planner       Planner
	rep           *Report
	forcedPending bool
}

// checkpointCursor passes a monitored segment's batches through,
// deciding at every emitted row whether a checkpoint lands there. When
// the planner supplies a replacement it cuts the batch at that row and
// ends the stream; next then holds the segment that continues the run.
type checkpointCursor struct {
	in        seq.BatchCursor
	mon       *monitor
	root      *exec.NodeMetrics
	span      seq.Span
	nextCheck seq.Pos
	consumed  seq.Pos // the last row emitted
	next      *Segment
	trigger   Trigger
	err       error
}

func (c *checkpointCursor) NextBatch() (*seq.Batch, bool) {
	if c.next != nil || c.err != nil {
		return nil, false
	}
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	// The metrics count the whole batch, so checkpoints price them
	// against the span read so far, not just the rows emitted.
	read := seq.Span{Start: c.span.Start, End: min(b.Span.End, c.span.End)}
	n := len(b.Pos)
	for i := b.Valid.NextSet(0, n); i < n; i = b.Valid.NextSet(i+1, n) {
		c.consumed = b.Pos[i]
		if c.next, c.err = c.checkpoint(read); c.err != nil {
			return nil, false
		}
		if c.next == nil {
			continue
		}
		for j := b.Valid.NextSet(i+1, n); j < n; j = b.Valid.NextSet(j+1, n) {
			b.Valid.Clear(j)
		}
		b.Span.End = c.consumed
		break
	}
	return b, true
}

// checkpoint applies the checkpoint rule right after the row at
// c.consumed and returns the planner's replacement segment when it
// splices there.
func (c *checkpointCursor) checkpoint(read seq.Span) (*Segment, error) {
	m := c.mon
	force := m.forcedPending && c.consumed >= *m.cfg.ForceAt
	check := c.consumed >= c.nextCheck
	if !force && !check {
		return nil, nil
	}
	if check {
		m.rep.Checkpoints++
		for c.nextCheck <= c.consumed {
			c.nextCheck += m.cfg.interval()
		}
	}
	if c.consumed >= c.span.End {
		return nil, nil // nothing remains to replan
	}
	if m.cfg.MaxSwitches > 0 && len(m.rep.Switches) >= m.cfg.MaxSwitches {
		return nil, nil
	}
	t, hit := evaluate(c.root, c.span, read, m.w, m.cfg.Threshold)
	if force {
		t.Forced, hit = true, true
		m.forcedPending = false
	}
	if !hit {
		return nil, nil
	}
	remaining := seq.Span{Start: c.consumed + 1, End: c.span.End}
	seg, err := m.planner.Replan(remaining, read, c.root, t.Forced || m.cfg.Threshold == 0)
	if err != nil {
		return nil, fmt.Errorf("reopt: replanning %v: %w", remaining, err)
	}
	c.trigger = t
	return seg, nil
}

func (c *checkpointCursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.in.Err()
}

func (c *checkpointCursor) Close() error { return c.in.Close() }

// evaluate walks the live metrics tree and returns the worst-error
// trigger at or beyond the threshold. The prediction side is each
// node's cumulative predicted stream cost pro-rated to the fraction of
// the segment span read; the actual side prices the node's accumulated
// counters. A zero threshold always triggers (on the node with the
// largest relative error).
func evaluate(root *exec.NodeMetrics, span, read seq.Span,
	w exec.CostWeights, threshold float64) (Trigger, bool) {
	if threshold < 0 {
		threshold = DefaultThreshold
	}
	frac := float64(read.Len()) / float64(span.Len())
	if frac > 1 {
		frac = 1
	}
	var best Trigger
	hit := false
	root.Walk(func(n *exec.NodeMetrics, _ int) {
		if !n.Predicted.Known {
			return
		}
		predFrac := n.Predicted.Stream * frac
		actual := n.ActualCost(w)
		denom := predFrac
		if denom < 1 {
			denom = 1
		}
		rel := math.Abs(actual-predFrac) / denom
		if rel > threshold || threshold == 0 {
			if !hit || rel > best.RelErr {
				best = Trigger{Node: n.Label, Predicted: predFrac, Actual: actual, RelErr: rel}
				hit = true
			}
		}
	})
	return best, hit
}
