// Standing queries: SUBSCRIBE turns a SEQL query into a server-resident
// subscription whose result the client keeps current by applying pushed
// Delta frames. The machinery is the same incremental view maintenance
// the registry uses (matview.AffectedSpan bounds where a write can
// change the result), applied per write instead of per registered view:
// the affected halo is intersected with the subscription span, just that
// sub-span is re-evaluated against the post-write snapshots, and the
// result travels as an epoch-stamped region replacement.
//
// Everything happens under Server.wmu, between publishing the write and
// advancing the epoch: a subscriber that applies deltas in arrival order
// can never observe an epoch whose delta it has not seen. The price is
// that a slow subscriber (full TCP buffer) blocks the writer lock — see
// docs/OPERATIONS.md, "Standing-query sizing".
package server

import (
	"repro/internal/algebra"
	"repro/internal/matview"
	"repro/internal/parser"
	"repro/internal/seq"
	"repro/internal/wire"
)

// subscription is one standing query on one connection. The node is the
// query's block bound at subscribe time; every maintenance pass rebinds
// its base leaves to the write's snapshots by name.
type subscription struct {
	id   uint64
	c    *conn
	seql string
	node *algebra.Node
	span seq.Span
}

// subscribe registers a standing query for the connection, sending the
// SubAck and the initial full-content delta atomically with the
// registration (under wmu), so no concurrent write can slip between
// snapshot and registration unseen.
func (s *Server) subscribe(c *conn, seql string, span seq.Span) error {
	if !span.Bounded() {
		return errf(wire.CodePlan, "subscribe needs a bounded span, got %s", span)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	epoch := s.epochs.Current()
	root, err := parser.Bind(seql, s.catalogAt(epoch, nil))
	if err != nil {
		return &Error{Code: wire.CodeParse, Err: err}
	}
	if algebra.UniverseSensitive(root) {
		return errf(wire.CodePlan,
			"standing query is universe-sensitive: its content outside a write's halo could change, so deltas cannot be incremental")
	}
	entries, err := algebra.EvalRange(root, span)
	if err != nil {
		return &Error{Code: wire.CodeExec, Err: err}
	}
	s.nextSub++
	sub := &subscription{id: s.nextSub, c: c, seql: seql, node: root, span: span}
	s.subs[sub.id] = sub
	if err := c.push(&wire.SubAck{SubID: sub.id, Epoch: epoch, Fields: root.Schema.Fields()}); err != nil {
		delete(s.subs, sub.id)
		return err
	}
	for _, d := range wire.SplitDelta(sub.id, epoch, int64(span.Start), int64(span.End), entries) {
		if err := c.push(d); err != nil {
			delete(s.subs, sub.id)
			return err
		}
	}
	return nil
}

// unsubscribe cancels one of the connection's standing queries.
func (s *Server) unsubscribe(c *conn, id uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	sub, ok := s.subs[id]
	if !ok || sub.c != c {
		return errf(wire.CodeNotFound, "no subscription %d on this connection", id)
	}
	delete(s.subs, id)
	return nil
}

// dropConnSubs removes every subscription of a disconnecting client.
func (s *Server) dropConnSubs(c *conn) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for id, sub := range s.subs {
		if sub.c == c {
			delete(s.subs, id)
		}
	}
}

// publishDeltas pushes one region replacement to every subscription the
// write can have changed. Called under wmu after the write published at
// epoch, before the epoch advances. Per subscription: rebind the block
// to the epoch's snapshots, bound the halo with the same AffectedSpan
// analysis view maintenance uses, re-evaluate the halo ∩ span
// sub-region, and frame it. An unknown halo falls back to replacing the
// whole span. A push failure means the client is gone; its
// subscriptions are dropped and the connection's reader will notice.
func (s *Server) publishDeltas(base string, delta seq.Span, epoch int64) {
	if len(s.subs) == 0 {
		return
	}
	lookup := s.sequenceAt(epoch)
	var dead []*subscription
	for _, sub := range s.subs {
		if !matview.ReadsBase(sub.node, base) {
			continue
		}
		node, err := matview.Rebind(sub.node, lookup)
		if err != nil {
			dead = append(dead, sub)
			continue
		}
		hit := sub.span
		if affected, known := matview.AffectedSpan(node, base, delta); known {
			hit = affected.Intersect(sub.span)
		}
		if hit.IsEmpty() {
			continue
		}
		entries, err := algebra.EvalRange(node, hit)
		if err != nil {
			dead = append(dead, sub)
			continue
		}
		for _, d := range wire.SplitDelta(sub.id, epoch, int64(hit.Start), int64(hit.End), entries) {
			if err := sub.c.push(d); err != nil {
				dead = append(dead, sub)
				break
			}
		}
	}
	for _, sub := range dead {
		delete(s.subs, sub.id)
	}
}
