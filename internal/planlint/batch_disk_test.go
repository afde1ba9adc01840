package planlint_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/planlint"
	"repro/internal/reopt"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/testgen"
)

// TestBatchDiskDifferential runs the batch-vs-scalar differential with
// every base sequence living on the durable disk tier: random queries
// are generated as usual, their in-memory bases are persisted into a
// disk DB (alternating dense and sparse layouts), and the plans execute
// over buffer-pool-backed snapshots. Disk snapshots do not implement
// the native batch protocol, so this exercises the adapter bridge end
// to end — including its interaction with the metering wrapper — the
// batch/* invariants on top of it, and reoptimized runs whose segments
// read disk snapshot leaves.
func TestBatchDiskDifferential(t *testing.T) {
	db, err := disk.Open(t.TempDir(), disk.Config{
		PageSize: 512, RecordsPerPage: 4, PoolPages: 64, CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runLeafDifferential(t, "disk-backed", func(name string, mat *seq.Materialized, kind storage.Kind) (seq.Sequence, error) {
		if err := db.CreateSequence(name, mat, kind); err != nil {
			return nil, err
		}
		s, ok := db.Seq(name)
		if !ok {
			return nil, fmt.Errorf("sequence %s vanished after create", name)
		}
		return s.Latest(), nil
	})
}

// TestBatchSnapshotDifferential is the same differential over the
// memory tier's MVCC snapshots — the leaves every engine read binds —
// which scan natively in batches.
func TestBatchSnapshotDifferential(t *testing.T) {
	runLeafDifferential(t, "snapshot-backed", func(_ string, mat *seq.Materialized, kind storage.Kind) (seq.Sequence, error) {
		v, err := storage.NewVersioned(mat, kind, 4, 1)
		if err != nil {
			return nil, err
		}
		return v.SnapshotAt(1), nil
	})
}

// runLeafDifferential rebinds every base of random queries to the
// sequence store returns (alternating sparse and dense layouts) and
// checks batch evaluation against scalar evaluation on the optimized
// plans, plus the batch/* invariants, and reoptimized runs with forced
// splices against the reference interpreter.
func runLeafDifferential(t *testing.T, tier string, store func(name string, mat *seq.Materialized, kind storage.Kind) (seq.Sequence, error)) {
	span := seq.NewSpan(-10, 50)
	cfg := testgen.Config{MaxDepth: 4, MaxPos: 32, BaseDensity: 0.5}
	const plans = 60
	verified, spliced := 0, 0
	var batches int64
	for seed := int64(1); verified < plans; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, err := testgen.RandomQuery(rng, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		if algebra.Divergent(q) {
			continue
		}
		// Move every base onto the tier and point the query at its
		// snapshots.
		nbase := 0
		var swapErr error
		var walk func(n *algebra.Node)
		walk = func(n *algebra.Node) {
			for _, in := range n.Inputs {
				walk(in)
			}
			if swapErr != nil || n.Kind != algebra.KindBase {
				return
			}
			nbase++
			name := fmt.Sprintf("dseq-%d-%d", seed, nbase)
			mat, ok := n.Seq.(*seq.Materialized)
			if !ok {
				return
			}
			kind := storage.KindSparse
			if nbase%2 == 0 {
				kind = storage.KindDense
			}
			s, err := store(name, mat, kind)
			if err != nil {
				swapErr = fmt.Errorf("create %s: %w", name, err)
				return
			}
			n.Seq = s
		}
		walk(q)
		if swapErr != nil {
			t.Fatalf("seed %d: %v", seed, swapErr)
		}
		res, err := core.Optimize(q, span, core.Options{Verify: true})
		if err != nil {
			t.Fatalf("seed %d: optimize: %v\nquery:\n%s", seed, err, q)
		}
		if !res.RunSpan.Bounded() || res.RunSpan.IsEmpty() {
			continue
		}
		if issues := planlint.VerifyBatches(res.Plan, res.RunSpan); len(issues) != 0 {
			t.Fatalf("seed %d: %s batch verification:\n%v\nquery:\n%s\nplan:\n%s",
				seed, tier, planlint.Error(issues), q, res.Explain())
		}
		sgot, err := seq.Collect(res.Plan.Scan(res.RunSpan))
		if err != nil {
			t.Fatalf("seed %d: scalar scan: %v\nplan:\n%s", seed, err, res.Explain())
		}
		ctx := seq.NewBatchCtx()
		bgot, err := exec.Run(res.Plan, res.RunSpan, ctx)
		if err != nil {
			t.Fatalf("seed %d: batch run: %v\nplan:\n%s", seed, err, res.Explain())
		}
		if !testgen.EntriesApproxEqual(bgot.Entries(), sgot) {
			t.Fatalf("seed %d: %s batch evaluation disagrees with scalar\nquery:\n%s\nplan:\n%s",
				seed, tier, q, res.Explain())
		}
		batches += ctx.Batches
		// Reoptimized runs read the same leaves: splice at every
		// checkpoint and at a forced midpoint, and the spliced output
		// must still match the reference interpreter record for record.
		want, err := algebra.EvalRange(q, span)
		if err != nil {
			t.Fatalf("seed %d: reference interpreter: %v\nquery:\n%s", seed, err, q)
		}
		mid := res.RunSpan.Start + res.RunSpan.Len()/2
		for ci, rcfg := range []reopt.Config{
			{Enabled: true, CheckEvery: 16, Threshold: 0},
			{Enabled: true, CheckEvery: 1 << 30, Threshold: 8, ForceAt: &mid},
		} {
			rgot, rep, err := res.RunReoptWith(rcfg)
			if err != nil {
				t.Fatalf("seed %d: %s reopt cfg %d: %v\nquery:\n%s\nplan:\n%s",
					seed, tier, ci, err, q, res.Explain())
			}
			if !testgen.EntriesApproxEqual(rgot.Entries(), want) {
				t.Fatalf("seed %d: %s reopt cfg %d disagrees with the reference\nquery:\n%s\nplan:\n%s\nreport:\n%s",
					seed, tier, ci, q, res.Explain(), rep.Render())
			}
			spliced += len(rep.Switches)
		}
		verified++
	}
	t.Logf("verified %d %s plans batch-vs-scalar (%d batches consumed, %d reopt splices)", verified, tier, batches, spliced)
	if batches == 0 {
		t.Fatalf("no %s plan ever consumed a batch; the differential is dead", tier)
	}
	if spliced == 0 {
		t.Fatalf("no %s reopt run ever spliced; the reopt differential is dead", tier)
	}
}
