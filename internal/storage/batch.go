// Native batch scans for the memory-backed stores. Page and record
// accounting is position-for-position identical to the scalar cursors —
// the same pages are charged in the same order — but the counters are
// accumulated locally per batch and published with one atomic add per
// counter per batch, removing the per-record atomic traffic from the
// hot loop. Memory-backed MVCC snapshots (the leaves every engine read
// binds) scan natively too, through the same page-charging rule
// (chargeWalk); disk-backed snapshots do not implement the batch
// protocol and are bridged by the execution layer's adapter, which
// preserves their per-record accounting exactly.
package storage

import (
	"sort"

	"repro/internal/seq"
)

// chargeWalk is the page-charging rule every batch cursor shares: a walk
// over pages [firstPg, lastPg] that last charged page *last charges each
// distinct page once, in walk order — what the scalar cursors charge
// page by page. It returns the pages to charge and records lastPg as
// charged.
func chargeWalk(firstPg, lastPg int64, last *int64) int64 {
	pages := lastPg - firstPg
	if firstPg != *last {
		pages++
	}
	*last = lastPg
	return pages
}

// ScanBatches implements seq.BatchScanner for the dense store: the
// position walk, page charging (every page entered, holding records or
// not) and record accounting mirror denseCursor exactly.
func (d *Dense) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(d.span)
	if span.IsEmpty() {
		return seq.EmptyBatchCursor()
	}
	return &denseBatchCursor{
		slots:  func(p seq.Pos) []seq.Record { return d.recs[p-d.span.Start:] }, //seqvet:ignore spanarith dense spans are bounded at construction
		schema: d.schema, stats: d.stats, origin: d.span.Start, rpp: int64(d.rpp),
		ctx: ctx, pos: span.Start, end: span.End, charged: -1,
	}
}

// ScanBatches implements seq.BatchScanner for the sparse store: entry
// windows decompose into batches; page charges (by entry index, plus
// the index descent for a mid-file start) mirror sparseCursor exactly.
func (s *Sparse) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(s.span)
	if span.IsEmpty() || len(s.entries) == 0 {
		return seq.EmptyBatchCursor()
	}
	lo := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Pos >= span.Start })
	hi := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Pos > span.End })
	if lo > 0 {
		// Entering the middle of the file requires an index descent.
		s.stats.RandPages.Add(s.probeDepth())
	}
	return &sparseBatchCursor{
		pageAt: func(i int) []seq.Entry { return s.entries[i*s.rpp : min((i+1)*s.rpp, len(s.entries))] },
		schema: s.schema, stats: s.stats, rpp: s.rpp,
		ctx: ctx, k: lo, hi: hi, next: span.Start, end: span.End, charged: -1,
	}
}

// ScanBatches implements seq.BatchScanner for MVCC snapshots through the
// cursors of the single-version stores, so page and record accounting
// stays identical position for position: a dense version's slot pages
// follow Dense's page math, and every page of a sparse version but the
// last holds rpp entries, so an entry's flat index maps to its page as
// in Sparse.
func (s *Snapshot) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	span = span.Intersect(s.v.span)
	if span.IsEmpty() || len(s.v.pages) == 0 {
		return seq.EmptyBatchCursor()
	}
	pages, start, rpp := s.v.pages, s.v.span.Start, s.rpp
	if s.v.kind == KindDense {
		return &denseBatchCursor{
			slots: func(p seq.Pos) []seq.Record {
				pg := pages[(p-start)/int64(rpp)] //seqvet:ignore spanarith bounded dense span
				return pg.slots[p-pg.first:]
			},
			schema: s.schema, stats: s.stats, origin: start, rpp: int64(rpp),
			ctx: ctx, pos: span.Start, end: span.End, charged: -1,
		}
	}
	pi, j := s.seek(span.Start)
	last := max(sort.Search(len(pages), func(i int) bool { return pages[i].first > span.End })-1, 0)
	ents := pages[last].entries
	hi := last*rpp + sort.Search(len(ents), func(i int) bool { return ents[i].Pos > span.End })
	return &sparseBatchCursor{
		pageAt: func(i int) []seq.Entry { return pages[i].entries },
		schema: s.schema, stats: s.stats, rpp: rpp,
		ctx: ctx, k: pi*rpp + j, hi: hi, next: span.Start, end: span.End, charged: -1,
	}
}

// denseBatchCursor walks a dense layout position by position, a slot
// run at a time, charging every page entered (holding records or not).
type denseBatchCursor struct {
	// slots returns the slots from p to the end of a run holding p: the
	// whole slot array, or p's page.
	slots   func(p seq.Pos) []seq.Record
	schema  *seq.Schema
	stats   *Stats
	origin  seq.Pos // position of page 0's first slot
	rpp     int64
	ctx     *seq.BatchCtx
	batch   *seq.Batch
	ents    []seq.Entry // scratch window, reused per batch
	pos     seq.Pos
	end     seq.Pos
	charged int64 // last page charged; -1 before the first touch
	err     error
	done    bool
}

func (c *denseBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.done || c.err != nil {
		return nil, false
	}
	if c.batch == nil {
		c.batch = seq.NewBatchFor(c.schema, c.ctx.Size)
		c.ents = make([]seq.Entry, 0, c.ctx.Size)
	}
	b := c.batch
	b.Reset()
	b.Span = seq.Span{Start: c.pos, End: c.end}
	first := c.pos
	ents := c.ents[:0]
	for c.pos <= c.end && len(ents) < c.ctx.Size {
		run := c.slots(c.pos)
		if rem := c.end - c.pos + 1; int64(len(run)) > rem { //seqvet:ignore spanarith dense spans are bounded at construction
			run = run[:rem]
		}
		for i, r := range run {
			if r == nil {
				continue
			}
			ents = append(ents, seq.Entry{Pos: c.pos + seq.Pos(i), Rec: r}) //seqvet:ignore spanarith dense spans are bounded at construction
			if len(ents) == c.ctx.Size {
				run = run[:i+1]
				break
			}
		}
		c.pos += seq.Pos(len(run)) //seqvet:ignore spanarith dense spans are bounded at construction
	}
	c.ents = ents
	// The walk visited the contiguous positions [first, c.pos-1]; charge
	// one page per distinct page in that range, continuing from the last
	// page charged — the same pages in the same order as the scalar
	// cursor's per-position walk.
	firstPg := (first - c.origin) / c.rpp    //seqvet:ignore spanarith dense spans are bounded at construction
	lastPg := (c.pos - 1 - c.origin) / c.rpp //seqvet:ignore spanarith dense spans are bounded at construction
	if pages := chargeWalk(firstPg, lastPg, &c.charged); pages != 0 {
		c.stats.SeqPages.Add(pages)
	}
	if len(ents) != 0 {
		c.stats.SeqRecords.Add(int64(len(ents)))
	}
	if err := b.AppendEntryRows(ents, c.ctx.Intern); err != nil {
		c.err = err
		return nil, false
	}
	if c.pos > c.end {
		c.done = true
		return b, true
	}
	b.Span.End = c.pos - 1
	return b, true
}

func (c *denseBatchCursor) Err() error   { return c.err }
func (c *denseBatchCursor) Close() error { return nil }

// sparseBatchCursor delivers the entries with flat indexes [k, hi) of a
// paged sparse layout, charging each page once, as its first entry is
// delivered.
type sparseBatchCursor struct {
	// pageAt returns page i's entries; every page but the last holds
	// rpp, so flat index k lives on page k/rpp.
	pageAt  func(i int) []seq.Entry
	schema  *seq.Schema
	stats   *Stats
	rpp     int
	ctx     *seq.BatchCtx
	batch   *seq.Batch
	k, hi   int
	next    seq.Pos
	end     seq.Pos
	charged int64
	err     error
	done    bool
}

func (c *sparseBatchCursor) NextBatch() (*seq.Batch, bool) {
	if c.done || c.err != nil {
		return nil, false
	}
	if c.batch == nil {
		c.batch = seq.NewBatchFor(c.schema, c.ctx.Size)
	}
	b := c.batch
	b.Reset()
	b.Span = seq.Span{Start: c.next, End: c.end}
	if n := min(c.hi-c.k, c.ctx.Size); n > 0 {
		firstPg, lastPg := int64(c.k/c.rpp), int64((c.k+n-1)/c.rpp)
		for stop := c.k + n; c.k < stop; {
			win := c.pageAt(c.k / c.rpp)[c.k%c.rpp:]
			win = win[:min(len(win), stop-c.k)]
			if err := b.AppendEntryRows(win, c.ctx.Intern); err != nil {
				c.err = err
				return nil, false
			}
			c.k += len(win)
		}
		if pages := chargeWalk(firstPg, lastPg, &c.charged); pages != 0 {
			c.stats.SeqPages.Add(pages)
		}
		c.stats.SeqRecords.Add(int64(n))
	}
	if c.k >= c.hi {
		c.done = true
		return b, true
	}
	b.Span.End = b.Pos[b.Rows()-1]
	c.next = b.Span.End + 1 //seqvet:ignore spanarith row positions lie inside the bounded scan span
	return b, true
}

func (c *sparseBatchCursor) Err() error   { return c.err }
func (c *sparseBatchCursor) Close() error { return nil }

// ScanBatches implements seq.BatchScanner for the metering wrapper:
// batch-capable inner stores are delegated to with the shared-counter
// movement credited to the consumer around the open and around each
// batch; anything else is bridged through the wrapper's own scalar Scan,
// preserving its per-record crediting.
func (m *metered) ScanBatches(span seq.Span, ctx *seq.BatchCtx) seq.BatchCursor {
	if bs, ok := m.inner.(seq.BatchScanner); ok {
		before := m.inner.Stats().Snapshot()
		cur := bs.ScanBatches(span, ctx)
		m.credit(before)
		return &meteredBatchCursor{m: m, in: cur}
	}
	return seq.BatchCursorFrom(m.Scan(span), span, m.inner.Info().Schema, ctx)
}

type meteredBatchCursor struct {
	m  *metered
	in seq.BatchCursor
}

func (c *meteredBatchCursor) NextBatch() (*seq.Batch, bool) {
	before := c.m.inner.Stats().Snapshot()
	b, ok := c.in.NextBatch()
	c.m.credit(before)
	return b, ok
}

func (c *meteredBatchCursor) Err() error   { return c.in.Err() }
func (c *meteredBatchCursor) Close() error { return c.in.Close() }
