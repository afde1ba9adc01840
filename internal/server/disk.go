// Disk attachment: the server's storage tier behind serverSeq is an
// interface with two implementations — the memory-backed
// storage.Versioned, which satisfies it directly, and the durable
// disk.DB (page files + WAL + buffer pool, internal/storage/disk).
// AttachDisk swaps the tier: existing sequences and persisted views are
// loaded, the epoch tracker is seeded from the database's recovered
// epoch, and every subsequent write (create, append, reorganize,
// materialize, drop view) follows write-ahead discipline through the
// disk layer before it publishes in memory. The read path is untouched:
// both tiers hand out epoch-pinned storage.SeqSnapshot leaves, so
// snapshot isolation, planlint verification and EXPLAIN ANALYZE page
// attribution work identically — disk snapshots merely add buffer-pool
// counters to the same storage.Stats blocks.
package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/parser"
	"repro/internal/seq"
	"repro/internal/storage"
	"repro/internal/storage/disk"
)

// versionedSeq is one multi-version base sequence as the server sees
// it: epoch-pinned snapshot reads plus epoch-explicit writes. Writes
// are only ever called under Server.wmu, matching the
// publish-then-advance protocol; SnapshotAt must return an untyped nil
// when the store has no version at or below the epoch.
type versionedSeq interface {
	SnapshotAt(epoch int64) storage.SeqSnapshot
	LatestEpoch() int64
	Versions() int
	PageVersions() int
	GC(minLive int64) int
	Append(e seq.Entry, epoch int64) error
	Reorganize(kind storage.Kind, epoch int64) error
}

// diskSeq adapts one sequence of an attached disk.DB. Mutations go
// through the database's epoch-explicit entry points so they are
// WAL-logged and durable before publication; the database's own epoch
// follows the server's epochs because every write carries the epoch the
// server chose under wmu.
type diskSeq struct {
	db *disk.DB
	s  *disk.Seq
}

func (d diskSeq) SnapshotAt(epoch int64) storage.SeqSnapshot {
	if s := d.s.SnapshotAt(epoch); s != nil {
		return s
	}
	return nil
}
func (d diskSeq) LatestEpoch() int64   { return d.s.LatestEpoch() }
func (d diskSeq) Versions() int        { return d.s.Versions() }
func (d diskSeq) PageVersions() int    { return d.s.PageVersions() }
func (d diskSeq) GC(minLive int64) int { return d.s.GC(minLive) }
func (d diskSeq) Append(e seq.Entry, epoch int64) error {
	return d.db.AppendAt(d.s.Name(), e, epoch)
}
func (d diskSeq) Reorganize(k storage.Kind, epoch int64) error {
	return d.db.ReorganizeAt(d.s.Name(), k, epoch)
}

// AttachDisk makes the database the server's storage tier. Call it
// once, after New and before the server accepts writes or sessions: the
// recovered sequences are registered with freshly computed column
// statistics, the epoch tracker is advanced to the database's recovered
// epoch, and persisted materialized views are re-planned and registered
// at their saved epochs (a persisted view is guaranteed consistent —
// any base write after its registration would have deleted it from the
// catalog). The server does not close the database; the owner closes it
// after Server.Close returns.
func (s *Server) AttachDisk(db *disk.DB) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.disk != nil {
		return fmt.Errorf("server: a disk database is already attached")
	}
	s.mu.RLock()
	populated := len(s.seqs) > 0
	s.mu.RUnlock()
	if populated {
		return fmt.Errorf("server: attach the disk database before creating sequences")
	}
	if e := db.Epoch(); e > s.epochs.Current() {
		if err := s.epochs.AdvanceTo(e); err != nil {
			return err
		}
	}
	for _, name := range db.Names() {
		ds, ok := db.Seq(name)
		if !ok {
			continue // dropped between Names and Seq; nothing serves it
		}
		m, err := materializeSnapshot(ds)
		if err != nil {
			return fmt.Errorf("server: load sequence %q: %w", name, err)
		}
		ss := &serverSeq{name: name, v: diskSeq{db: db, s: ds}, stats: meta.StatsFromMaterialized(m)}
		s.mu.Lock()
		s.seqs[name] = ss
		s.mu.Unlock()
	}
	s.disk = db
	for _, v := range db.Views() {
		if err := s.reattachView(v); err != nil {
			return fmt.Errorf("server: reattach view %q: %w", v.Name, err)
		}
	}
	return nil
}

// materializeSnapshot collects the latest version of a disk sequence
// into memory — the input for column statistics at attach time.
func materializeSnapshot(ds *disk.Seq) (*seq.Materialized, error) {
	entries, err := seq.Collect(ds.Latest().Scan(seq.AllSpan))
	if err != nil {
		return nil, err
	}
	return seq.NewMaterialized(ds.Schema(), entries)
}

// reattachView re-plans a persisted view's SEQL at its saved epoch and
// registers the stored entries in the matview registry, valid from that
// epoch — the same canonical block readers match against, without
// recomputing the view's content.
func (s *Server) reattachView(v *disk.View) error {
	root, err := parser.Bind(v.SEQL, s.catalogAt(v.Epoch, nil))
	if err != nil {
		return err
	}
	opts := s.planOptions()
	opts.Views = nil
	res, err := core.Optimize(root, v.Span, opts)
	if err != nil {
		return err
	}
	data, err := seq.NewMaterialized(res.Rewritten.Schema, v.Entries)
	if err != nil {
		return err
	}
	_, err = s.views.RegisterAt(v.Name, res.Rewritten, data, v.Span, v.Epoch)
	return err
}

// persistView writes a freshly materialized view through the attached
// database (no-op without one). Called under wmu, after the registry
// registration succeeded; on failure the registration is rolled back so
// memory and disk stay consistent.
func (s *Server) persistView(name, seql string, span seq.Span, epoch int64, bases []string, out *seq.Materialized) error {
	if s.disk == nil {
		return nil
	}
	err := s.disk.PutViewAt(&disk.View{
		Name: name, SEQL: seql, Span: span, Epoch: epoch,
		Bases: bases, Entries: out.Entries(),
	})
	if err != nil {
		s.views.Drop(name)
	}
	return err
}

// diskViews returns the attached database's persisted view names (nil
// without an attached database).
func (s *Server) diskViews() map[string]bool {
	if s.disk == nil {
		return nil
	}
	names := make(map[string]bool)
	for _, v := range s.disk.Views() {
		names[v.Name] = true
	}
	return names
}
