package storage

import "repro/internal/seq"

// Metered wraps a Store so that every page and record access it serves
// is additionally accumulated into a consumer-private Stats block, on
// top of the store's shared counters. This is the attribution mechanism
// behind EXPLAIN ANALYZE: each plan leaf meters its own accesses, so
// per-node page counts sum exactly to the store's global counter deltas
// even when several leaves read the same base sequence in one plan.
//
// Attribution works by delta-snapshotting the shared counters around
// each access. Within one plan run accesses are serialized (the
// execution engine is a single-threaded pull pipeline), so the deltas
// are exact. Concurrent runs over the same store must use separate
// Metered wrappers and must not interleave accesses within one wrapper.
func Metered(s Store, consumer *Stats) Store {
	return &metered{inner: s, consumer: consumer}
}

type metered struct {
	inner    Store
	consumer *Stats
}

// Info implements seq.Sequence.
func (m *metered) Info() seq.Info { return m.inner.Info() }

// Stats implements Store: the shared counters stay authoritative.
func (m *metered) Stats() *Stats { return m.inner.Stats() }

// AccessCosts implements Store.
func (m *metered) AccessCosts() AccessCosts { return m.inner.AccessCosts() }

// credit adds the shared-counter movement since before to the consumer.
func (m *metered) credit(before StatsSnapshot) {
	m.consumer.AddSnapshot(m.inner.Stats().Snapshot().Sub(before))
}

// Probe implements seq.Sequence.
func (m *metered) Probe(pos seq.Pos) (seq.Record, error) {
	before := m.inner.Stats().Snapshot()
	r, err := m.inner.Probe(pos)
	m.credit(before)
	return r, err
}

// Scan implements seq.Sequence. Opening the cursor may itself touch
// pages (the sparse store charges an index descent to position a
// mid-file scan), so the open is metered too.
func (m *metered) Scan(span seq.Span) seq.Cursor {
	before := m.inner.Stats().Snapshot()
	cur := m.inner.Scan(span)
	m.credit(before)
	return &meteredCursor{m: m, in: cur}
}

type meteredCursor struct {
	m  *metered
	in seq.Cursor
}

func (c *meteredCursor) Next() (seq.Pos, seq.Record, bool) {
	before := c.m.inner.Stats().Snapshot()
	p, r, ok := c.in.Next()
	c.m.credit(before)
	return p, r, ok
}

func (c *meteredCursor) Err() error   { return c.in.Err() }
func (c *meteredCursor) Close() error { return c.in.Close() }
