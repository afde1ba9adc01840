package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/matview"
	"repro/internal/meta"
	"repro/internal/parser"
	"repro/internal/planlint"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/wire"
)

// readConns is the number of closed-loop client connections: nproc on
// the 2-core machines the benchmark is sized for.
const readConns = 2

// shape is one query text and its output domain, in Table 1 units
// (thousands of base positions, scaled by the workload). A collapse
// query's output coordinates are the base coordinates divided by div.
type shape struct {
	text   string
	lo, hi int64
	div    int64
}

// readSpec describes one read workload.
type readSpec struct {
	name  string
	scale int64
	kind  storage.Kind
	disk  bool
	// shapes are the query texts; views are materialized over each half
	// of their domain before the timed phase.
	shapes []shape
	views  []shape
	// distinct is the number of (text, span) pairs generated; the
	// closed loop cycles through them.
	distinct   int
	minW, maxW int64
	// skew starts spans near the end of the domain more often.
	skew bool
	// warm is the number of queries sent during set-up, outside the
	// timed phase; crossChecks the number of fingerprints compared with
	// the reference interpreter.
	warm, crossChecks int
}

// query is one generated request and the fingerprint of its answer.
type query struct {
	text       string
	start, end int64
	div        int64
	want       fingerprint
}

// The Table 1 query shapes of the paper, over the full domains where
// their inputs overlap.
var (
	shapeAvg      = shape{"avg(hp, close, 20)", 1, 750, 1}
	shapeSelect   = shape{"select(compose(ibm, hp), ibm.close > hp.close)", 200, 500, 1}
	shapePrev     = shape{"prev(select(compose(ibm, hp), ibm.close > hp.close))", 200, 500, 1}
	shapeCollapse = shape{"collapse(hp, avg(close), 7)", 1, 750, 7}
	shapeCompose3 = shape{"compose(dec, compose(ibm, hp) as ih)", 200, 350, 1}
)

func scanSpec() readSpec {
	return readSpec{
		name: "scan", scale: 100, kind: storage.KindDense,
		shapes:   []shape{shapeAvg, shapeSelect, shapePrev, shapeCollapse, shapeCompose3},
		distinct: 256, minW: 2000, maxW: 8000,
		warm: 32, crossChecks: 3,
	}
}

func pointSpec() readSpec {
	return readSpec{
		name: "point", scale: 10, kind: storage.KindDense,
		shapes: []shape{
			{"avg(hp, close, 10)", 1, 750, 1},
			{"select(avg(hp, close, 20), avg > 100.0)", 1, 750, 1},
			{"sum(ibm, volume, 5)", 200, 500, 1},
			{"select(max(dec, close, 10), max > 100.0)", 1, 350, 1},
			{"select(compose(ibm, hp), ibm.close > hp.close)", 200, 500, 1},
			{"prev(select(compose(ibm, hp), ibm.close > hp.close))", 200, 500, 1},
			{"collapse(hp, avg(close), 7)", 1, 750, 7},
			{"project(compose(ibm, offset(ibm, -1) as y), ibm.close - y.close as delta)", 200, 500, 1},
			{"compose(dec, select(compose(ibm, hp), ibm.close > hp.close) as ih)", 200, 350, 1},
			{"compose(dec, compose(ibm, hp) as ih)", 200, 350, 1},
			{"compose(compose(ibm, dec) as a, compose(hp, offset(ibm, -1) as y) as b)", 200, 350, 1},
			{"compose(compose(ibm, hp) as x, compose(dec, offset(hp, -1) as z) as w)", 200, 350, 1},
		},
		views: []shape{
			{"avg(hp, close, 5)", 1, 750, 1},
			{"avg(hp, close, 10)", 1, 750, 1},
			{"avg(hp, close, 20)", 1, 750, 1},
			{"avg(hp, close, 50)", 1, 750, 1},
			{"sum(ibm, volume, 5)", 200, 500, 1},
			{"sum(ibm, volume, 10)", 200, 500, 1},
			{"sum(ibm, volume, 20)", 200, 500, 1},
			{"max(dec, close, 5)", 1, 350, 1},
			{"max(dec, close, 10)", 1, 350, 1},
			{"select(compose(ibm, hp), ibm.close > hp.close)", 200, 500, 1},
			{"compose(ibm, dec)", 200, 350, 1},
			{"compose(ibm, hp)", 200, 500, 1},
			{"compose(dec, hp)", 1, 350, 1},
			{"collapse(hp, avg(close), 7)", 1, 750, 7},
			{"select(hp, close > 100.0)", 1, 750, 1},
			{"select(ibm, volume > 5000)", 200, 500, 1},
		},
		distinct: 384, minW: 8, maxW: 64,
		warm: 64, crossChecks: 16,
	}
}

func coldSpec() readSpec {
	return readSpec{
		name: "cold_scan", scale: 300, kind: storage.KindSparse, disk: true,
		// prev is left out: its backward walk to the previous record
		// costs what the data's runs of Nulls dictate, not what the
		// pages do, and gave single queries of 30-80 ms.
		shapes: []shape{
			shapeAvg, shapeSelect, shapeCompose3,
			{"max(ibm, close, 10)", 200, 500, 1},
		},
		distinct: 512, minW: 2000, maxW: 5000, skew: true,
		warm: 0, crossChecks: 2,
	}
}

// genQueries derives the workload's requests from the seed. Widths and
// start positions are stratified: the j-th of a shape's n queries draws
// its width from the j-th of n equal slices of [minW, maxW], and its
// start from a slice chosen by a seeded permutation. Every seed thus asks
// for about the same amount of work over the same spread of positions,
// and the seeds differ in exactly where. The warm-up queries are spread
// evenly over the shapes and width slices, so every seed's set-up does
// about the same work too.
func genQueries(spec readSpec, seed int64) (qs, warm []query) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs = make([]query, spec.distinct)
	perShape := (len(qs) + len(spec.shapes) - 1) / len(spec.shapes)
	perms := make([][]int, len(spec.shapes))
	for i := range perms {
		perms[i] = rng.Perm(perShape)
	}
	stratum := func(j int) float64 { return (float64(j) + rng.Float64()) / float64(perShape) }
	for i := range qs {
		si := i % len(spec.shapes)
		sh := spec.shapes[si]
		j := i / len(spec.shapes)
		lo, hi := sh.lo*spec.scale/sh.div, sh.hi*spec.scale/sh.div
		w := spec.minW + int64(stratum(j)*float64(spec.maxW-spec.minW))
		w = max(1, w/sh.div)
		if w > hi-lo+1 {
			w = hi - lo + 1
		}
		room := hi - lo + 1 - w
		u := stratum(perms[si][j])
		if spec.skew {
			// The offset from the end is the square of a uniform draw.
			u = 1 - u*u
		}
		start := lo + int64(u*float64(room))
		qs[i] = query{text: sh.text, start: start, end: start + w - 1, div: sh.div}
	}
	// The i-th warm-up query takes shape i mod the number of shapes, and
	// the shape's warm-up queries take evenly spaced width slices; qs is
	// still in generation order, shape-major within a slice.
	perWarm := (spec.warm + len(spec.shapes) - 1) / len(spec.shapes)
	for i := 0; i < spec.warm; i++ {
		si, k := i%len(spec.shapes), i/len(spec.shapes)
		warm = append(warm, qs[(k*perShape/perWarm)*len(spec.shapes)+si])
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs, warm
}

// viewName names the view registered over one half of a view shape.
func viewName(i, half int) string { return fmt.Sprintf("v%02d_%d", i, half) }

// readFixture is one served database.
type readFixture struct {
	srv   *server.Server
	addr  string
	stop  func() error
	db    *disk.DB
	dir   string
	views int
}

func (f *readFixture) close() error {
	var err error
	if f.stop != nil {
		err = f.stop()
	} else {
		f.srv.Close()
	}
	if f.db != nil {
		if cerr := f.db.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// setupReads brings a server to serving state: storage tier, base
// sequences, materialized views and warm-up queries over the wire.
func setupReads(spec readSpec, cfg runConfig, bases map[string]*seq.Materialized, warm []query) (f *readFixture, err error) {
	f = &readFixture{srv: server.New(serverConfig())}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if spec.disk {
		if f.dir, err = os.MkdirTemp(cfg.work, spec.name+"-"); err != nil {
			return nil, err
		}
		// cmd/seqd's defaults: 8 KiB pages, a 1024-page pool, an fsync
		// per append, 15 s checkpoints.
		if f.db, err = disk.Open(filepath.Join(f.dir, "db"), disk.Config{}); err != nil {
			return nil, err
		}
		if err = f.srv.AttachDisk(f.db); err != nil {
			return nil, err
		}
	}
	for _, b := range table1 {
		if err = f.srv.CreateSequence(b.name, bases[b.name], spec.kind); err != nil {
			return nil, err
		}
	}
	if f.addr, f.stop, err = listener(f.srv); err != nil {
		return nil, err
	}
	if len(spec.views) == 0 && len(warm) == 0 {
		return f, nil
	}
	c, err := wire.Dial(f.addr, "seqdbench-setup")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for i, v := range spec.views {
		lo, hi := v.lo*spec.scale/v.div, v.hi*spec.scale/v.div
		mid := lo + (hi-lo)/2
		for half, sp := range [][2]int64{{lo, mid}, {mid + 1, hi}} {
			if _, err = c.Materialize(viewName(i, half), v.text, sp[0], sp[1]); err != nil {
				return nil, fmt.Errorf("materialize %s: %w", v.text, err)
			}
			f.views++
		}
	}
	for _, q := range warm {
		if _, err = c.Query(q.text, q.start, q.end); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", q.text, err)
		}
	}
	return f, nil
}

// memCatalog binds names to the generated data itself: the input of the
// reference interpreter.
func memCatalog(bases map[string]*seq.Materialized) parser.Catalog {
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		m, ok := bases[name]
		if !ok {
			return nil, false
		}
		return algebra.BaseWithStats(name, m, meta.StatsFromMaterialized(m)), true
	})
}

// computeFingerprints answers every query in-process and compares a
// sample with algebra.EvalRange over the generated data.
func computeFingerprints(spec readSpec, f *readFixture, bases map[string]*seq.Materialized, qs []query) error {
	sess := f.srv.NewSession("seqdbench-check")
	cat := memCatalog(bases)
	for i := range qs {
		q := &qs[i]
		span := seq.NewSpan(q.start, q.end)
		res, err := sess.Query(q.text, span)
		if err != nil {
			return fmt.Errorf("fingerprint %s over %v: %w", q.text, span, err)
		}
		q.want = fingerprintOf(res.Entries)
		if i >= spec.crossChecks {
			continue
		}
		root, err := parser.Bind(q.text, cat)
		if err != nil {
			return err
		}
		ref, err := algebra.EvalRange(root, span)
		if err != nil {
			return err
		}
		if diff := sameEntries(res.Entries, ref); diff != "" {
			return fmt.Errorf("%s over %v differs from algebra.EvalRange: %s", q.text, span, diff)
		}
	}
	return nil
}

// loopResult is what a closed loop observed.
type loopResult struct {
	latMs     []float64       // client-observed latency of each correct query
	doneAt    []time.Duration // completion of each correct query, since start
	rowsAt    []int64         // its row count
	execMs    []float64       // server-reported execution time
	queueMs   []float64       // server-reported queue wait
	rows      int64
	attempted int64
	failed    int64
	elapsed   time.Duration
}

// rateWindows is the number of equal windows the timed phase is cut
// into for the throughput metrics, which report the median window.
const rateWindows = 4

// windowRates returns the median over n equal windows of the timed
// phase of the queries and rows completed per second.
func (lr *loopResult) windowRates(n int) (ops, rows float64) {
	w := lr.elapsed / time.Duration(n)
	opsW := make([]float64, n)
	rowsW := make([]float64, n)
	for i, at := range lr.doneAt {
		k := min(int(at/w), n-1)
		opsW[k]++
		rowsW[k] += float64(lr.rowsAt[i])
	}
	for k := range opsW {
		opsW[k] /= w.Seconds()
		rowsW[k] /= w.Seconds()
	}
	return quantile(opsW, 0.5), quantile(rowsW, 0.5)
}

// closedLoop runs conns connections for d, each sending its next query
// only after the previous reply arrived, and checks every answer.
func closedLoop(addr string, qs []query, conns int, d time.Duration) (*loopResult, error) {
	clients := make([]*wire.Client, conns)
	for i := range clients {
		c, err := wire.Dial(addr, fmt.Sprintf("seqdbench-%d", i))
		if err != nil {
			for _, o := range clients[:i] {
				o.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	parts := make([]loopResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, r := clients[i], &parts[i]
			for k := i * len(qs) / conns; time.Now().Before(deadline); k++ {
				q := qs[k%len(qs)]
				t0 := time.Now()
				res, err := c.Query(q.text, q.start, q.end)
				lat := time.Since(t0)
				r.attempted++
				if err != nil || fingerprintOf(res.Entries) != q.want {
					r.failed++
					continue
				}
				r.latMs = append(r.latMs, ms(lat))
				r.doneAt = append(r.doneAt, time.Since(start))
				r.rowsAt = append(r.rowsAt, int64(len(res.Entries)))
				r.execMs = append(r.execMs, float64(res.ElapsedNs)/1e6)
				r.queueMs = append(r.queueMs, float64(res.QueueNs)/1e6)
				r.rows += int64(len(res.Entries))
			}
		}(i)
	}
	wg.Wait()
	out := &loopResult{elapsed: d}
	for i, c := range clients {
		c.Close()
		p := &parts[i]
		out.latMs = append(out.latMs, p.latMs...)
		out.doneAt = append(out.doneAt, p.doneAt...)
		out.rowsAt = append(out.rowsAt, p.rowsAt...)
		out.execMs = append(out.execMs, p.execMs...)
		out.queueMs = append(out.queueMs, p.queueMs...)
		out.rows += p.rows
		out.attempted += p.attempted
		out.failed += p.failed
	}
	return out, nil
}

// runReads runs one read workload.
func runReads(cfg runConfig, spec readSpec) (*report, error) {
	bases, err := genBases(cfg.seed, spec.scale)
	if err != nil {
		return nil, err
	}
	qs, warm := genQueries(spec, cfg.seed)
	setups := setupRuns
	if cfg.trace {
		setups = 1
	}
	f, setupS, err := timeRepeated(setups,
		func() (*readFixture, error) { return setupReads(spec, cfg, bases, warm) },
		func(f *readFixture) error { return f.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.close()
	if err := computeFingerprints(spec, f, bases, qs); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	rep := &report{metrics: map[string]float64{}}
	rep.addEnv("tier", map[bool]string{false: "memory", true: "disk"}[spec.disk])
	rep.addEnv("scale", spec.scale)
	rep.addEnv("records", countRecords(bases))
	rep.addEnv("data_pages", f.srv.PageVersions())
	rep.addEnv("views", f.views)
	rep.addEnv("subscriptions", 0)
	rep.addEnv("conns", readConns)
	rep.addEnv("distinct_queries", len(qs))
	if spec.disk {
		rep.addEnv("pool_pages", 1024)
		rep.addEnv("flush", "fsync-per-append")
		// Fingerprinting read the data through the pool; the timed
		// phase starts cold.
		f.db.DropCaches()
	}

	measure := cfg.measure
	if cfg.trace {
		measure /= 2
	}
	var pool0 disk.PoolCounters
	if f.db != nil {
		pool0 = f.db.Pool()
	}
	// As testing.B does, start the timed phase from a collected heap.
	runtime.GC()
	rt0 := readRuntime()
	lr, err := closedLoop(f.addr, qs, readConns, measure)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	rep.attempted, rep.failed = lr.attempted, lr.failed
	m := rep.metrics
	if !cfg.trace {
		m["ops_per_s"], m["rows_per_s"] = lr.windowRates(rateWindows)
		m["p50_ms"] = quantile(lr.latMs, 0.50)
		m["tail_ms"] = quantile(lr.latMs, 0.99)
		m["setup_s"] = setupS
		m["heap_inuse_mb"] = heapInuseMiB(f.srv)
		rep.addEnv("samples", len(lr.latMs))
		return rep, nil
	}

	m["server.exec_ms_p50"] = quantile(lr.execMs, 0.50)
	m["server.queue_ms_p99"] = quantile(lr.queueMs, 0.99)
	var execSum, latSum float64
	for i := range lr.latMs {
		execSum += lr.execMs[i]
		latSum += lr.latMs[i]
	}
	m["server.outside_exec_frac"] = 1 - ratio(execSum, latSum)
	runtimeRates(m, rt0, rt1)
	if f.db != nil {
		p := f.db.Pool()
		hits, misses := float64(p.Hits-pool0.Hits), float64(p.Misses-pool0.Misses)
		n := float64(len(lr.latMs))
		m["disk.pool_hit_rate"] = ratio(hits, hits+misses)
		m["disk.pool_misses_per_query"] = ratio(misses, n)
		m["disk.pool_evictions_per_query"] = ratio(float64(p.Evictions-pool0.Evictions), n)
	}
	rep.addEnv("samples", len(lr.latMs))

	rp, err := newReadReplay(spec, f, bases)
	if err != nil {
		return nil, err
	}
	if err := rp.run(cfg, qs, measure, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// readReplay re-runs the workload's queries in-process, calling each
// layer's public functions in the order a seqd request does and timing
// every call.
type readReplay struct {
	spec   readSpec
	db     *disk.DB
	cat    parser.Catalog
	epoch  int64
	opts   core.Options
	sess   *server.Session
	leaves []leaf // snapshots minted by the current bind
	snap   func(name string) storage.SeqSnapshot
	tr     *tracer

	// Counters summed over every replayed query; rowsTraced counts the
	// rows of the queries replayed with span recording on.
	queries, rows, rowsTraced, wireBytes, allocs, records int64
	seqPages, randPages, rules, joinPlans, candidates     int64
	subs, parallelK, leafRecords, leafPages               int64
}

// leaf is one base-sequence snapshot a bind resolved.
type leaf struct {
	name string
	snap storage.SeqSnapshot
}

func newReadReplay(spec readSpec, f *readFixture, bases map[string]*seq.Materialized) (*readReplay, error) {
	rp := &readReplay{spec: spec, db: f.db, sess: f.srv.NewSession("seqdbench-replay"), tr: newTracer()}
	stats := map[string]map[int]expr.ColStats{}
	for name, m := range bases {
		stats[name] = meta.StatsFromMaterialized(m)
	}
	if f.db != nil {
		// The disk tier is shared with the server: snapshots of the same
		// page versions, through the same buffer pool.
		rp.epoch = f.srv.Epoch()
		rp.snap = func(name string) storage.SeqSnapshot {
			s, ok := f.db.Seq(name)
			if !ok {
				return nil
			}
			if sn := s.SnapshotAt(rp.epoch); sn != nil {
				return sn
			}
			return nil
		}
	} else {
		// The memory tier's stores are private to the server; the replay
		// builds the same versioned stores from the same data.
		stores := map[string]*storage.Versioned{}
		for name, m := range bases {
			v, err := storage.NewVersioned(m, spec.kind, 0, 0)
			if err != nil {
				return nil, err
			}
			stores[name] = v
		}
		rp.snap = func(name string) storage.SeqSnapshot {
			v, ok := stores[name]
			if !ok {
				return nil
			}
			if sn := v.SnapshotAt(0); sn != nil {
				return sn
			}
			return nil
		}
	}
	rp.cat = parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		sn := rp.snap(name)
		if sn == nil {
			return nil, false
		}
		rp.leaves = append(rp.leaves, leaf{name, sn})
		return algebra.BaseWithStats(name, sn, stats[name]), true
	})
	if len(spec.views) > 0 {
		reg := matview.New()
		for i, v := range spec.views {
			lo, hi := v.lo*spec.scale/v.div, v.hi*spec.scale/v.div
			mid := lo + (hi-lo)/2
			for half, sp := range [][2]int64{{lo, mid}, {mid + 1, hi}} {
				root, err := parser.Bind(v.text, rp.cat)
				if err != nil {
					return nil, err
				}
				res, err := core.Optimize(root, seq.NewSpan(sp[0], sp[1]), core.Options{})
				if err != nil {
					return nil, err
				}
				out, err := res.Run()
				if err != nil {
					return nil, err
				}
				if _, err := reg.RegisterAt(viewName(i, half), res.Rewritten, out, res.RunSpan, rp.epoch); err != nil {
					return nil, err
				}
			}
		}
		rp.opts.Views = reg.At(rp.epoch)
	}
	return rp, nil
}

// one replays a single query as a traced request.
func (rp *readReplay) one(q query) error {
	tr := rp.tr
	rp.leaves = rp.leaves[:0]
	span := seq.NewSpan(q.start, q.end)
	req := tr.request("request")
	defer tr.end(req)

	id := tr.begin("parser.Bind")
	root, err := parser.Bind(q.text, rp.cat)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("core.Optimize")
	res, err := core.Optimize(root, span, rp.opts)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("planlint.VerifySnapshot")
	issues := planlint.VerifySnapshot(res.Rewritten, res.Substitutions, rp.epoch)
	tr.end(id)
	if len(issues) > 0 {
		return fmt.Errorf("snapshot invariant: %s", issues[0])
	}
	a0 := allocBytes()
	id = tr.begin("exec.Run")
	out, err := res.Run()
	tr.end(id)
	rp.allocs += int64(allocBytes() - a0)
	if err != nil {
		return err
	}
	entries := out.Entries()
	id = tr.begin("wire.SplitRows")
	batches := wire.SplitRows(entries)
	tr.end(id)
	id = tr.begin("wire.Encode")
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		frames[i] = wire.Encode(&wire.ResultRows{Entries: b})
	}
	tr.end(id)
	id = tr.begin("wire.Decode")
	got := make([]seq.Entry, 0, len(entries))
	for _, fr := range frames {
		msg, err := wire.Decode(fr)
		if err != nil {
			tr.end(id)
			return err
		}
		got = append(got, msg.(*wire.ResultRows).Entries...)
	}
	tr.end(id)
	if fingerprintOf(got) != q.want {
		return fmt.Errorf("%s over [%d,%d]: replay answer differs from the fingerprint", q.text, q.start, q.end)
	}

	rp.queries++
	rp.rows += int64(len(entries))
	if tr.on {
		rp.rowsTraced += int64(len(entries))
	}
	for _, fr := range frames {
		rp.wireBytes += int64(len(fr) + 4) // 4-byte length prefix
	}
	for _, l := range rp.leaves {
		s := l.snap.Stats().Snapshot()
		rp.records += s.SeqRecords + s.ProbeRecords
		rp.seqPages += s.SeqPages
		rp.randPages += s.RandPages
	}
	rp.rules += int64(res.Stats.RulesFired)
	rp.joinPlans += res.Stats.JoinPlansEvaluated
	rp.candidates += res.Stats.CandidatesCosted
	rp.subs += int64(len(res.Substitutions))
	k := 1
	if res.Parallel != nil && res.Parallel.K > 1 {
		k = res.Parallel.K
	}
	rp.parallelK += int64(k)
	return nil
}

// leafScan times a direct scan of each base the query reads over the
// query's base-coordinate span. On the disk tier the pool is emptied
// first, so the scan reads every page from its file.
func (rp *readReplay) leafScan(q query) error {
	names := map[string]bool{}
	for _, l := range rp.leaves {
		names[l.name] = true
	}
	span := seq.NewSpan(q.start*q.div, q.end*q.div+q.div-1)
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		sn := rp.snap(name)
		if sn == nil {
			return fmt.Errorf("no snapshot of %q", name)
		}
		if rp.db != nil {
			rp.db.DropCaches()
		}
		id := rp.tr.begin("storage.Scan")
		cur := sn.Scan(span)
		n := int64(0)
		for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
			n++
		}
		err := cur.Err()
		cur.Close()
		rp.tr.end(id)
		if err != nil {
			return err
		}
		rp.leafRecords += n
		rp.leafPages += sn.Stats().Snapshot().SeqPages
	}
	return nil
}

// sessionQuery times the server's in-process entry point, without the
// socket.
func (rp *readReplay) sessionQuery(q query) error {
	id := rp.tr.request("server.Session.Query")
	res, err := rp.sess.Query(q.text, seq.NewSpan(q.start, q.end))
	rp.tr.end(id)
	if err != nil {
		return err
	}
	if fingerprintOf(res.Entries) != q.want {
		return fmt.Errorf("%s over [%d,%d]: Session.Query answer differs from the fingerprint", q.text, q.start, q.end)
	}
	return nil
}

// run replays the queries for about d, alternating passes with span
// recording off and on, then derives the per-layer metrics.
func (rp *readReplay) run(cfg runConfig, qs []query, d time.Duration, rep *report) error {
	// Each pass replays the same passLen queries once with recording
	// off and once with it on, so the two differ only in the recording.
	const passLen = 8
	base := 0
	pass := func() error {
		for i := 0; i < passLen; i++ {
			q := qs[(base+i)%len(qs)]
			rep.attempted++
			if err := rp.one(q); err != nil {
				rp.tr.abort()
				rep.failed++
				fmt.Printf("replay failure: %v\n", err)
			}
		}
		return nil
	}
	deadline := time.Now().Add(d * 2 / 3)
	var off, on time.Duration
	for base == 0 || time.Now().Before(deadline) {
		if err := overheadRound(rp.tr, pass, &off, &on); err != nil {
			return err
		}
		base += passLen
	}
	// Leaf scans and the in-process server path are timed after the
	// request replay so that emptying the pool does not disturb it.
	deadline = time.Now().Add(d / 3)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		q := qs[i%len(qs)]
		rep.attempted += 2
		if err := rp.sessionQuery(q); err != nil {
			rp.tr.abort()
			rep.failed++
		}
		rp.leaves = rp.leaves[:0]
		if _, err := parser.Bind(q.text, rp.cat); err != nil {
			return err
		}
		if err := rp.leafScan(q); err != nil {
			rp.tr.abort()
			rep.failed++
		}
	}
	path, err := rp.tr.write(filepath.Join(cfg.work, "traces"), fmt.Sprintf("%s-seed%d.jsonl", rp.spec.name, cfg.seed))
	if err != nil {
		return err
	}
	rep.addEnv("trace_file", path)
	rep.addEnv("trace_spans", len(rp.tr.spans))

	lt := rp.tr.selfTimes()
	n := 0
	if r := lt["request"]; r != nil {
		n = r.calls
	}
	rows := float64(rp.rowsTraced)
	m := rep.metrics
	m["trace.overhead_frac"] = ratio(float64(on-off), float64(off))
	m["parser.bind_us"] = selfUs(lt, n, "parser.Bind")
	m["core.optimize_us"] = selfUs(lt, n, "core.Optimize")
	m["planlint.verify_snapshot_us"] = selfUs(lt, n, "planlint.VerifySnapshot")
	m["exec.run_us"] = selfUs(lt, n, "exec.Run")
	m["wire.encode_ns_per_row"] = ratio(selfUs(lt, 1, "wire.SplitRows", "wire.Encode")*1e3, rows)
	m["wire.decode_ns_per_row"] = ratio(selfUs(lt, 1, "wire.Decode")*1e3, rows)
	m["wire.bytes_per_row"] = ratio(float64(rp.wireBytes), float64(rp.rows))
	m["trace.compile_us_per_query"] = selfUs(lt, n, "parser.Bind", "core.Optimize", "planlint.VerifySnapshot")
	m["trace.execute_us_per_query"] = selfUs(lt, n, "exec.Run", "wire.SplitRows", "wire.Encode", "wire.Decode")
	m["server.session_query_us"] = meanUs(lt, "server.Session.Query")
	nq := float64(rp.queries)
	m["core.rules_fired"] = ratio(float64(rp.rules), nq)
	m["core.join_plans_evaluated"] = ratio(float64(rp.joinPlans), nq)
	m["core.candidates_costed"] = ratio(float64(rp.candidates), nq)
	m["core.view_substitutions"] = ratio(float64(rp.subs), nq)
	m["core.parallel_k"] = ratio(float64(rp.parallelK), nq)
	m["exec.records_read_per_row"] = ratio(float64(rp.records), float64(rp.rows))
	m["exec.alloc_bytes_per_row"] = ratio(float64(rp.allocs), float64(rp.rows))
	m["storage.seq_pages_per_query"] = ratio(float64(rp.seqPages), nq)
	m["storage.rand_pages_per_query"] = ratio(float64(rp.randPages), nq)
	m["storage.leaf_scan_ns_per_record"] = ratio(selfUs(lt, 1, "storage.Scan")*1e3, float64(rp.leafRecords))
	if rp.db != nil {
		m["disk.cold_scan_ns_per_page"] = ratio(selfUs(lt, 1, "storage.Scan")*1e3, float64(rp.leafPages))
	}
	return nil
}
