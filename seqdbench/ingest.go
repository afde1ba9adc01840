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
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/disk"
	"repro/internal/wire"
)

// ingest parameters. Every append goes to hp, one position past its end.
const (
	ingestScale = 20
	// ingestWarm appends run during set-up, after views and
	// subscriptions are registered and before the timed phase.
	ingestWarm = 64
	// viewWindow is the trailing window of every view, in positions: a
	// view over hp's last positions extends viewWindow-1 past hp's end,
	// so each of the first viewWindow-1 appends lands inside it.
	viewWindow = 350
	// viewPrefix is how far before hp's end each view starts. A stitch
	// must cost under half a recompute (core.StitchThreshold); the
	// prefix keeps the view large against its halo.
	viewPrefix = 2 * viewWindow
	// subLead is how far before hp's end each subscription starts.
	subLead = 200
	// roundAppends are the timed appends of a round: every position the
	// views reach past hp's end that warm-up has not used. A round
	// always makes all of them, so every round does the same work
	// however fast it runs.
	roundAppends = viewWindow - 1 - ingestWarm
	// capBatch is the number of closed-loop appends per rate sample.
	capBatch = 25
	// openAppends are the traced round's open-loop appends, and
	// inprocAppends its in-process Server.Append calls; both follow the
	// closed-loop half of the round.
	openAppends   = 96
	inprocAppends = 32
)

// ingestViews are the materialized views: trailing-window aggregates of
// hp, registered over [end-viewPrefix, end+viewWindow-1].
var ingestViews = []string{
	fmt.Sprintf("avg(hp, close, %d)", viewWindow),
	fmt.Sprintf("sum(hp, volume, %d)", viewWindow),
	fmt.Sprintf("max(hp, close, %d)", viewWindow),
	fmt.Sprintf("min(hp, open, %d)", viewWindow),
	fmt.Sprintf("count(hp, %d)", viewWindow),
	fmt.Sprintf("avg(hp, open, %d)", viewWindow),
	fmt.Sprintf("sum(hp, close, %d)", viewWindow),
	fmt.Sprintf("max(hp, volume, %d)", viewWindow),
}

// ingestSubs are the standing queries: windowed aggregates, selects over
// them and offset composes, all with bounded halos. prev/next are left
// out (see README.md, known defect).
var ingestSubs = []string{
	"avg(hp, close, 5)",
	"avg(hp, close, 20)",
	"sum(hp, volume, 10)",
	"max(hp, close, 8)",
	"min(hp, close, 8)",
	"count(hp, 16)",
	"select(avg(hp, close, 10), avg > 100.0)",
	"select(sum(hp, volume, 5), sum > 25000)",
	"select(max(hp, close, 12), max > 101.0)",
	"select(hp, close > 100.0)",
	"select(compose(hp, offset(hp, -1) as y), hp.close > y.close)",
	"project(compose(hp, offset(hp, -1) as y), hp.close - y.close as delta)",
	"compose(hp, offset(hp, -5) as y)",
	"compose(avg(hp, close, 5) as a, avg(hp, close, 20) as b)",
	"avg(select(hp, volume > 5000), close, 10)",
	"select(compose(hp, ibm), hp.close > ibm.close)",
}

// appendGen produces the records appended to hp: a seeded continuation
// of the random walk, one position after another. It reverts to 100
// faster than workload.Stock's walk, so the price-threshold selects of
// the subscriptions pass about as often on every seed and every round
// does about the same delta work.
type appendGen struct {
	rng   *rand.Rand
	next  int64
	price float64
	done  []seq.Entry // every acknowledged append, in order
}

func (g *appendGen) entry() seq.Entry {
	open := g.price
	g.price += (100-g.price)*0.25 + (g.rng.Float64()*2 - 1)
	e := seq.Entry{Pos: g.next, Rec: seq.Record{
		seq.Float(open), seq.Float(g.price), seq.Int(int64(g.rng.Intn(9000) + 1000)),
	}}
	g.next++
	return e
}

// deltaRec is one Delta frame as the subscriber received it.
type deltaRec struct {
	d     *wire.Delta
	at    time.Time
	bytes int
}

// subscriber owns the connection holding every standing query and keeps
// a copy of each query's result by applying deltas in arrival order.
type subscriber struct {
	c       *wire.Client
	texts   map[uint64]string
	spans   map[uint64]seq.Span
	measure bool // record frame sizes

	mu      sync.Mutex
	frames  []deltaRec
	last    map[uint64]int64 // latest epoch seen per subscription
	lastEnd map[uint64]int64 // end of the latest frame's region
	copies  map[uint64]map[int64]seq.Record
	order   error // first out-of-order or duplicate delta
	done    chan struct{}
}

func (s *subscriber) loop() {
	defer close(s.done)
	for {
		d, err := s.c.ReadDelta()
		if err != nil {
			return
		}
		at := time.Now()
		n := 0
		if s.measure {
			n = len(wire.Encode(d)) + 4
		}
		s.mu.Lock()
		s.frames = append(s.frames, deltaRec{d: d, at: at, bytes: n})
		// The frames of one region replacement share an epoch and tile
		// the region left to right; a later replacement carries a higher
		// epoch. Anything else is a duplicate or out of order.
		prev, seen := s.last[d.SubID]
		if s.order == nil && seen && (d.Epoch < prev || d.Epoch == prev && d.Start != s.lastEnd[d.SubID]+1) {
			s.order = fmt.Errorf("subscription %d: delta for epoch %d over [%d,%d] after epoch %d ending at %d",
				d.SubID, d.Epoch, d.Start, d.End, prev, s.lastEnd[d.SubID])
		}
		s.last[d.SubID] = d.Epoch
		s.lastEnd[d.SubID] = d.End
		cp := s.copies[d.SubID]
		for p := range cp {
			if p >= d.Start && p <= d.End {
				delete(cp, p)
			}
		}
		for _, e := range d.Entries {
			cp[e.Pos] = e.Rec
		}
		s.mu.Unlock()
	}
}

// caughtUp reports whether every subscription has seen epoch.
func (s *subscriber) caughtUp(epoch int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.texts {
		if s.last[id] < epoch {
			return false
		}
	}
	return true
}

// ingestFixture is one served disk database with views, subscriptions
// and warm-up done.
type ingestFixture struct {
	srv   *server.Server
	stop  func() error
	db    *disk.DB
	dir   string
	app   *wire.Client
	sub   *subscriber
	gen   *appendGen
	end   int64 // hp's last generated position
	pages int
}

func (f *ingestFixture) stopClients() {
	if f.app != nil {
		f.app.Close()
		f.app = nil
	}
	if f.sub != nil {
		f.sub.c.Close()
		<-f.sub.done
		f.sub = nil
	}
}

// close stops the server and the database and removes the directory.
func (f *ingestFixture) close() error {
	f.stopClients()
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

func setupIngest(cfg runConfig, bases map[string]*seq.Materialized, measureFrames bool) (f *ingestFixture, err error) {
	f = &ingestFixture{srv: server.New(serverConfig())}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = os.MkdirTemp(cfg.work, "ingest-"); err != nil {
		return nil, err
	}
	// cmd/seqd's defaults: an fsync per append, a 1024-page pool, 15 s
	// checkpoints.
	if f.db, err = disk.Open(filepath.Join(f.dir, "db"), disk.Config{}); err != nil {
		return nil, err
	}
	if err = f.srv.AttachDisk(f.db); err != nil {
		return nil, err
	}
	for _, b := range table1 {
		if err = f.srv.CreateSequence(b.name, bases[b.name], storage.KindSparse); err != nil {
			return nil, err
		}
	}
	f.pages = f.srv.PageVersions()
	f.end = bases["hp"].Info().Span.End
	last := bases["hp"].Entries()[len(bases["hp"].Entries())-1]
	f.gen = &appendGen{rng: rand.New(rand.NewSource(cfg.seed ^ 0xa99e)), next: f.end + 1, price: last.Rec[1].AsFloat()}

	addr, stop, err := listener(f.srv)
	if err != nil {
		return nil, err
	}
	f.stop = stop
	if f.app, err = wire.Dial(addr, "seqdbench-appender"); err != nil {
		return nil, err
	}
	for i, text := range ingestViews {
		if _, err = f.app.Materialize(fmt.Sprintf("iv%d", i), text, f.end-viewPrefix, f.end+viewWindow-1); err != nil {
			return nil, fmt.Errorf("materialize %s: %w", text, err)
		}
	}
	sc, err := wire.Dial(addr, "seqdbench-subscriber")
	if err != nil {
		return nil, err
	}
	sub := &subscriber{
		c: sc, texts: map[uint64]string{}, spans: map[uint64]seq.Span{}, measure: measureFrames,
		last: map[uint64]int64{}, lastEnd: map[uint64]int64{}, copies: map[uint64]map[int64]seq.Record{}, done: make(chan struct{}),
	}
	span := seq.NewSpan(f.end-subLead, f.end+viewWindow-1)
	for _, text := range ingestSubs {
		ack, err := sc.Subscribe(text, span.Start, span.End)
		if err != nil {
			sc.Close()
			return nil, fmt.Errorf("subscribe %s: %w", text, err)
		}
		sub.texts[ack.SubID] = text
		sub.spans[ack.SubID] = span
		sub.copies[ack.SubID] = map[int64]seq.Record{}
		sub.last[ack.SubID] = -1
	}
	f.sub = sub
	go sub.loop()
	for i := 0; i < ingestWarm; i++ {
		e := f.gen.entry()
		if _, err = f.app.Append("hp", e.Pos, e.Rec); err != nil {
			return nil, fmt.Errorf("warm-up append: %w", err)
		}
		f.gen.done = append(f.gen.done, e)
	}
	return f, nil
}

// appendLog records the timed appends of one phase.
type appendLog struct {
	due, sent, acked []time.Time
	epochs           []int64
	failed           int64
}

// appendLoop sends n appends. With rate 0 it is a closed loop: each
// append is sent when the previous one is acknowledged, and is due then.
// Otherwise the i-th append is due at start + i/rate and is timed from
// then, however late the single connection gets to send it.
func appendLoop(f *ingestFixture, n int, rate float64) *appendLog {
	log := &appendLog{}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
		}
		sent := time.Now()
		e := f.gen.entry()
		epoch, err := f.app.Append("hp", e.Pos, e.Rec)
		if err != nil {
			log.failed++
			continue
		}
		f.gen.done = append(f.gen.done, e)
		log.due = append(log.due, due)
		log.sent = append(log.sent, sent)
		log.acked = append(log.acked, time.Now())
		log.epochs = append(log.epochs, epoch)
	}
	return log
}

// serverAppends times n calls of the engine's in-process append, without
// the socket, in microseconds. The subscriber keeps receiving deltas.
func serverAppends(f *ingestFixture, n int, rep *report) []float64 {
	var us []float64
	for i := 0; i < n; i++ {
		e := f.gen.entry()
		t0 := time.Now()
		_, err := f.srv.Append("hp", e.Pos, e.Rec)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		rep.attempted++
		if err != nil {
			rep.failed++
			continue
		}
		f.gen.done = append(f.gen.done, e)
	}
	return us
}

// waitDeltas waits until the subscriber has seen epoch on every
// subscription, for at most 30 s.
func waitDeltas(sub *subscriber, epoch int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for !sub.caughtUp(epoch) {
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriber did not reach epoch %d", epoch)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// deltaStats summarizes the frames of the given epochs: per epoch the
// arrival of its last frame, the subscriptions it reached and its rows,
// and totals.
type deltaStats struct {
	lastAt        map[int64]time.Time
	perEpochSubs  map[int64]map[uint64]bool
	perEpochRows  map[int64]int64
	frames, bytes int64
}

func (s *subscriber) stats(epochs []int64) *deltaStats {
	want := make(map[int64]bool, len(epochs))
	for _, e := range epochs {
		want[e] = true
	}
	ds := &deltaStats{lastAt: map[int64]time.Time{}, perEpochSubs: map[int64]map[uint64]bool{}, perEpochRows: map[int64]int64{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fr := range s.frames {
		if !want[fr.d.Epoch] {
			continue
		}
		if fr.at.After(ds.lastAt[fr.d.Epoch]) {
			ds.lastAt[fr.d.Epoch] = fr.at
		}
		if ds.perEpochSubs[fr.d.Epoch] == nil {
			ds.perEpochSubs[fr.d.Epoch] = map[uint64]bool{}
		}
		ds.perEpochSubs[fr.d.Epoch][fr.d.SubID] = true
		ds.perEpochRows[fr.d.Epoch] += int64(len(fr.d.Entries))
		ds.frames++
		ds.bytes += int64(fr.bytes)
	}
	return ds
}

// lags returns, per append of log, the time from when it was due until
// its last delta frame arrived, in ms.
func lags(log *appendLog, ds *deltaStats) []float64 {
	var out []float64
	for i, e := range log.epochs {
		if at, ok := ds.lastAt[e]; ok {
			out = append(out, ms(at.Sub(log.due[i])))
		}
	}
	return out
}

// batchRates cuts a closed loop into batches of capBatch appends and
// returns each batch's appends per second and delta rows received per
// second.
func batchRates(log *appendLog, ds *deltaStats) (ops, rows []float64) {
	for i := capBatch; i <= len(log.epochs); i += capBatch {
		secs := log.acked[i-1].Sub(log.sent[i-capBatch]).Seconds()
		var n int64
		for _, e := range log.epochs[i-capBatch : i] {
			n += ds.perEpochRows[e]
		}
		ops = append(ops, capBatch/secs)
		rows = append(rows, float64(n)/secs)
	}
	return ops, rows
}

// checkDeltas counts the appends whose deltas did not reach every
// subscription (each subscription's span holds every appended position,
// so every append's halo hits every one).
func checkDeltas(ds *deltaStats, epochs []int64, subs int) int64 {
	var bad int64
	for _, e := range epochs {
		if len(ds.perEpochSubs[e]) != subs {
			bad++
		}
	}
	return bad
}

// checkCopies compares every subscription's delta-maintained copy with
// the query answered over the same span at the final epoch.
func checkCopies(srv *server.Server, sub *subscriber) (int64, error) {
	sess := srv.NewSession("seqdbench-check")
	var bad int64
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.order != nil {
		fmt.Printf("delta order failure: %v\n", sub.order)
		bad++
	}
	for id, text := range sub.texts {
		res, err := sess.Query(text, sub.spans[id])
		if err != nil {
			return 0, err
		}
		cp := sub.copies[id]
		got := make([]seq.Entry, 0, len(cp))
		for p, r := range cp {
			got = append(got, seq.Entry{Pos: p, Rec: r})
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
		if diff := sameEntries(got, res.Entries); diff != "" {
			fmt.Printf("subscription %q: delta-maintained copy differs from the query: %s\n", text, diff)
			bad++
		}
	}
	return bad, nil
}

// checkDurable closes the database, reopens the directory and counts the
// acknowledged appends that are missing or different.
func checkDurable(f *ingestFixture) (int64, error) {
	f.stopClients()
	err := f.stop()
	f.stop = nil
	if cerr := f.db.Close(); err == nil {
		err = cerr
	}
	f.db = nil
	if err != nil {
		return 0, err
	}
	db, err := disk.Open(filepath.Join(f.dir, "db"), disk.Config{})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	hp, ok := db.Seq("hp")
	if !ok {
		return int64(len(f.gen.done)), nil
	}
	done := f.gen.done
	got, err := seq.Collect(hp.Latest().Scan(seq.NewSpan(done[0].Pos, done[len(done)-1].Pos)))
	if err != nil {
		return 0, err
	}
	var missing int64
	have := make(map[int64]seq.Record, len(got))
	for _, e := range got {
		have[e.Pos] = e.Rec
	}
	for _, e := range done {
		if r, ok := have[e.Pos]; !ok || !r.Equal(e.Rec) {
			missing++
		}
	}
	return missing, nil
}

// maintenance tallies the view-maintenance decisions of a phase.
func maintenance(m map[string]float64, reps []matview.MaintenanceReport, appends int) {
	var stitches, noops, shrinks, rows float64
	for _, r := range reps {
		switch r.Action {
		case matview.MaintainStitch:
			stitches++
			rows += float64(r.StitchSpan.Len())
		case matview.MaintainNone:
			noops++
		default:
			shrinks++
		}
	}
	n := float64(appends)
	m["matview.stitches_per_append"] = ratio(stitches, n)
	m["matview.noops_per_append"] = ratio(noops, n)
	m["matview.shrink_invalidate_per_append"] = ratio(shrinks, n)
	m["matview.stitch_rows_per_append"] = ratio(rows, n)
}

func msSince(from, to []time.Time) []float64 {
	out := make([]float64, len(from))
	for i := range from {
		out[i] = ms(to[i].Sub(from[i]))
	}
	return out
}

// roundResult is what one ingest round measured.
type roundResult struct {
	setupS    float64
	lat       []float64 // per closed-loop append, ms
	ops, rows []float64 // per batch of capBatch closed-loop appends
	heapMiB   float64
	pages     int
}

// ingestRound sets up a fresh server and makes roundAppends closed-loop
// appends. The traced round makes half of them, then openAppends on an
// open loop at half the closed loop's rate and inprocAppends in-process,
// and sets the per-layer metrics. Every round checks the deltas and the
// durability of every acknowledged append, and tears the server down.
func ingestRound(cfg runConfig, bases map[string]*seq.Materialized, rep *report) (*roundResult, error) {
	runtime.GC()
	start := time.Now()
	f, err := setupIngest(cfg, bases, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.close()
	r := &roundResult{setupS: time.Since(start).Seconds(), pages: f.pages}

	f.srv.TakeMaintenanceReports()
	n := roundAppends
	if cfg.trace {
		n /= 2
	}
	// As testing.B does, start the timed phase from a collected heap.
	runtime.GC()
	rt0 := readRuntime()
	closed := appendLoop(f, n, 0)
	rt1 := readRuntime()
	reps := f.srv.TakeMaintenanceReports()
	rep.attempted += int64(len(closed.epochs)) + closed.failed
	rep.failed += closed.failed
	if len(closed.epochs) == 0 {
		return nil, fmt.Errorf("no append succeeded")
	}
	open := &appendLog{}
	var inprocUs []float64
	if cfg.trace {
		secs := closed.acked[len(closed.acked)-1].Sub(closed.sent[0]).Seconds()
		rate := 0.5 * float64(len(closed.epochs)) / secs
		rep.addEnv("open_rate_per_s", fmt.Sprintf("%.0f", rate))
		open = appendLoop(f, openAppends, rate)
		rep.attempted += int64(len(open.epochs)) + open.failed
		rep.failed += open.failed
		inprocUs = serverAppends(f, inprocAppends, rep)
	}
	if err := waitDeltas(f.sub, f.srv.Epoch()); err != nil {
		return nil, err
	}
	cds := f.sub.stats(closed.epochs)
	ods := f.sub.stats(open.epochs)
	r.lat = msSince(closed.sent, closed.acked)
	r.ops, r.rows = batchRates(closed, cds)
	if cfg.trace {
		m := rep.metrics
		nc := float64(len(closed.epochs))
		m["wire.delta_bytes_per_append"] = ratio(float64(cds.bytes), nc)
		m["server.delta_frames_per_append"] = ratio(float64(cds.frames), nc)
		m["server.append_us"] = quantile(inprocUs, 0.5)
		m["gen.late_p99_ms"] = quantile(msSince(open.due, open.sent), 0.99)
		openLat := msSince(open.due, open.acked)
		m["open_loop.append_p50_ms"] = quantile(openLat, 0.50)
		m["open_loop.append_p95_ms"] = quantile(openLat, 0.95)
		lag := lags(open, ods)
		m["open_loop.delta_lag_p50_ms"] = quantile(lag, 0.50)
		m["open_loop.delta_lag_p95_ms"] = quantile(lag, 0.95)
		runtimeRates(m, rt0, rt1)
		maintenance(m, reps, len(closed.epochs))
	}

	// Every timed append must reach every subscription once per region,
	// in epoch order, and the maintained copies must equal the queries'
	// answers.
	bad := checkDeltas(cds, closed.epochs, len(ingestSubs)) + checkDeltas(ods, open.epochs, len(ingestSubs))
	bc, err := checkCopies(f.srv, f.sub)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(ingestSubs))
	rep.failed += bad + bc
	r.heapMiB = heapInuseMiB(f.srv)

	// Durability: every acknowledged append survives a clean close and
	// reopen.
	missing, err := checkDurable(f)
	if err != nil {
		return nil, fmt.Errorf("durability check: %w", err)
	}
	rep.attempted += int64(len(f.gen.done))
	rep.failed += missing
	return r, nil
}

// runIngest repeats rounds, each on a fresh server with the same inputs,
// for as long as another round fits in the run, and pools their samples.
// A round's appends must fit in the views' windows, so more rounds give
// more samples without wider views. The traced run makes one round and
// spends the rest of its time replaying appends in-process.
func runIngest(cfg runConfig) (*report, error) {
	bases, err := genBases(cfg.seed, ingestScale)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	start := time.Now()
	var rs []*roundResult
	for {
		r, err := ingestRound(cfg, bases, rep)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		perRound := time.Since(start) / time.Duration(len(rs))
		if cfg.trace || time.Since(start)+perRound > cfg.measure {
			break
		}
	}
	var setup, lat, ops, rows, heap []float64
	for _, r := range rs {
		setup = append(setup, r.setupS)
		lat = append(lat, r.lat...)
		ops = append(ops, r.ops...)
		rows = append(rows, r.rows...)
		heap = append(heap, r.heapMiB)
	}
	// Short runs time more set-ups, torn down untimed, so setup_s is
	// always the median of at least setupRuns.
	for i := len(setup); i < setupRuns && !cfg.trace; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := setupIngest(cfg, bases, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err := f.close(); err != nil {
			return nil, err
		}
	}
	rep.addEnv("tier", "disk")
	rep.addEnv("flush", "fsync-per-append")
	rep.addEnv("pool_pages", 1024)
	rep.addEnv("scale", ingestScale)
	rep.addEnv("records", countRecords(bases))
	rep.addEnv("data_pages", rs[0].pages)
	rep.addEnv("views", len(ingestViews))
	rep.addEnv("subscriptions", len(ingestSubs))
	rep.addEnv("append_loop", "closed")
	rep.addEnv("warmup_appends", ingestWarm)
	rep.addEnv("rounds", len(rs))
	rep.addEnv("timed_appends", len(lat))

	m := rep.metrics
	if !cfg.trace {
		m["ops_per_s"] = quantile(ops, 0.5)
		m["rows_per_s"] = quantile(rows, 0.5)
		m["p50_ms"] = quantile(lat, 0.50)
		m["tail_ms"] = quantile(lat, 0.90)
		m["setup_s"] = quantile(setup, 0.5)
		m["heap_inuse_mb"] = quantile(heap, 0.5)
		return rep, nil
	}
	return rep, replayIngest(cfg, bases, cfg.measure/2, rep)
}

// ingestMirror is a second disk database with the same data, views and
// standing queries, driven in-process through the layers an append
// passes: disk.AppendAt, core.MaintainViews, then per subscription
// matview.Rebind/AffectedSpan, algebra.EvalRange and wire framing.
type ingestMirror struct {
	db    *disk.DB
	reg   *matview.Registry
	subs  []*algebra.Node
	span  seq.Span
	epoch int64
	stats map[string]map[int]expr.ColStats
	tr    *tracer

	appends, walBytes int64
}

func (mr *ingestMirror) lookup(epoch int64) func(string) (seq.Sequence, bool) {
	return func(name string) (seq.Sequence, bool) {
		s, ok := mr.db.Seq(name)
		if !ok {
			return nil, false
		}
		sn := s.SnapshotAt(epoch)
		if sn == nil {
			return nil, false
		}
		return sn, true
	}
}

func (mr *ingestMirror) catalog(epoch int64) parser.Catalog {
	look := mr.lookup(epoch)
	return parser.CatalogFunc(func(name string) (*algebra.Node, bool) {
		sn, ok := look(name)
		if !ok {
			return nil, false
		}
		return algebra.BaseWithStats(name, sn, mr.stats[name]), true
	})
}

// append replays one append as a traced request.
func (mr *ingestMirror) append(e seq.Entry) error {
	tr := mr.tr
	req := tr.request("append")
	defer tr.end(req)
	next := mr.epoch + 1
	w0 := mr.db.WALBytes()
	id := tr.begin("disk.AppendAt")
	err := mr.db.AppendAt("hp", e, next)
	tr.end(id)
	if err != nil {
		return err
	}
	mr.walBytes += mr.db.WALBytes() - w0
	delta := seq.NewSpan(e.Pos, e.Pos)
	look := mr.lookup(next)
	id = tr.begin("core.MaintainViews")
	_, err = core.MaintainViews(mr.reg, "hp", delta, next, look, core.Options{})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("server.publishDeltas")
	for _, sub := range mr.subs {
		node, err := matview.Rebind(sub, look)
		if err != nil {
			tr.end(id)
			return err
		}
		hit := mr.span
		if affected, known := matview.AffectedSpan(node, "hp", delta); known {
			hit = affected.Intersect(mr.span)
		}
		if hit.IsEmpty() {
			continue
		}
		ev := tr.begin("algebra.EvalRange")
		entries, err := algebra.EvalRange(node, hit)
		tr.end(ev)
		if err != nil {
			tr.end(id)
			return err
		}
		enc := tr.begin("wire.Encode")
		for _, d := range wire.SplitDelta(1, next, hit.Start, hit.End, entries) {
			_ = wire.Encode(d)
		}
		tr.end(enc)
	}
	tr.end(id)
	mr.epoch = next
	mr.appends++
	return nil
}

// newMirror sets up a mirror database with the run's data, views and
// standing queries in a fresh directory under the work directory, and
// makes the warm-up appends with span recording off. done closes and
// removes it.
func newMirror(cfg runConfig, bases map[string]*seq.Materialized, tr *tracer) (mr *ingestMirror, gen *appendGen, done func(), err error) {
	dir, err := os.MkdirTemp(cfg.work, "ingest-mirror-")
	if err != nil {
		return nil, nil, nil, err
	}
	// No background checkpoints, so the WAL only grows and its size
	// difference per append is the bytes that append logged.
	db, err := disk.Open(filepath.Join(dir, "db"), disk.Config{CheckpointInterval: -1, CheckpointBytes: 1 << 40})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	done = func() {
		db.Close()
		os.RemoveAll(dir)
	}
	defer func() {
		if err != nil {
			done()
		}
	}()
	mr = &ingestMirror{db: db, reg: matview.New(), tr: tr, stats: map[string]map[int]expr.ColStats{}}
	for _, b := range table1 {
		if err := db.CreateSequence(b.name, bases[b.name], storage.KindSparse); err != nil {
			return nil, nil, nil, err
		}
		mr.stats[b.name] = meta.StatsFromMaterialized(bases[b.name])
	}
	mr.epoch = db.Epoch()
	end := bases["hp"].Info().Span.End
	cat := mr.catalog(mr.epoch)
	for i, text := range ingestViews {
		root, err := parser.Bind(text, cat)
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := core.Optimize(root, seq.NewSpan(end-viewPrefix, end+viewWindow-1), core.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		out, err := res.Run()
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := mr.reg.RegisterAt(fmt.Sprintf("iv%d", i), res.Rewritten, out, res.RunSpan, mr.epoch); err != nil {
			return nil, nil, nil, err
		}
	}
	mr.span = seq.NewSpan(end-subLead, end+viewWindow-1)
	for _, text := range ingestSubs {
		root, err := parser.Bind(text, cat)
		if err != nil {
			return nil, nil, nil, err
		}
		mr.subs = append(mr.subs, root)
	}
	last := bases["hp"].Entries()[len(bases["hp"].Entries())-1]
	gen = &appendGen{rng: rand.New(rand.NewSource(cfg.seed ^ 0xa99e)), next: end + 1, price: last.Rec[1].AsFloat()}
	tr.on = false
	for i := 0; i < ingestWarm; i++ {
		if err := mr.append(gen.entry()); err != nil {
			return nil, nil, nil, err
		}
	}
	return mr, gen, done, nil
}

// replayIngest replays the run's appends in-process for about d. Each
// mirror takes appends until the views' windows are used up; fresh
// mirrors replay the same appends again until the time is used. Mirrors
// come in pairs, one with span recording off and one with it on, in
// alternating order, so the two sides of trace.overhead_frac replay the
// same appends.
func replayIngest(cfg runConfig, bases map[string]*seq.Materialized, d time.Duration, rep *report) error {
	tr := newTracer()
	limit := bases["hp"].Info().Span.End + viewWindow - 1
	var off, on time.Duration
	var appends, walBytes int64
	mirrors := 0
	for deadline := time.Now().Add(d); mirrors < 2 || mirrors%2 == 1 || time.Now().Before(deadline); mirrors++ {
		mr, gen, done, err := newMirror(cfg, bases, tr)
		if err != nil {
			return err
		}
		tr.on = mirrors%2 != mirrors/2%2
		start := time.Now()
		for gen.next <= limit {
			rep.attempted++
			if err := mr.append(gen.entry()); err != nil {
				tr.abort()
				rep.failed++
				fmt.Printf("replay failure: %v\n", err)
			}
		}
		if tr.on {
			on += time.Since(start)
		} else {
			off += time.Since(start)
		}
		appends += mr.appends
		walBytes += mr.walBytes
		done()
	}
	path, err := tr.write(filepath.Join(cfg.work, "traces"), fmt.Sprintf("ingest-seed%d.jsonl", cfg.seed))
	if err != nil {
		return err
	}
	rep.addEnv("replay_mirrors", mirrors)
	rep.addEnv("trace_file", path)
	rep.addEnv("trace_spans", len(tr.spans))

	lt := tr.selfTimes()
	n := 0
	if r := lt["append"]; r != nil {
		n = r.calls
	}
	m := rep.metrics
	m["trace.overhead_frac"] = ratio(float64(on-off), float64(off))
	m["disk.append_us"] = meanUs(lt, "disk.AppendAt")
	m["disk.wal_bytes_per_append"] = ratio(float64(walBytes), float64(appends))
	m["matview.maintain_us_per_append"] = selfUs(lt, n, "core.MaintainViews")
	m["algebra.delta_eval_us_per_append"] = selfUs(lt, n, "algebra.EvalRange")
	return nil
}
