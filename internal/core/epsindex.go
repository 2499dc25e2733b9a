package core

import (
	"fmt"
	"math"

	"hazy/internal/btree"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// This file is the read surface the streaming SQL executor plans
// against: every clustered layout — the snapshot a serving engine
// publishes, the striped views' main-memory segments, and the
// on-disk B+-tree — exposes the same three capabilities, so the
// planner can push an eps-band predicate down to whichever physical
// structure the view happens to have instead of rescanning everything
// (paper §3.2.2's "clustered B+-tree index on t.eps", generalized to
// all layouts).

// RowCursor streams (id, eps, label) rows, eps-ascending. Next
// returns one row at a time; NextBatch is the bulk-fill form the
// vectorized executor drives — it fills a prefix of dst (up to
// len(dst) rows, one leaf's worth per call for the on-disk cursor)
// and returns how many, 0 meaning the scan is exhausted. Close
// releases any held resources (page pins for the on-disk cursor) and
// is idempotent; callers must Close even after an error.
type RowCursor interface {
	Next() (SnapEntry, bool, error)
	NextBatch(dst []SnapEntry) (int, error)
	Close()
}

// EpsIndexed is implemented by view layouts that maintain the eps
// clustering and can expose it: per-entity eps point reads and
// streaming eps-range scans. Clustered reports whether the instance
// actually has the clustering (the Hazy strategy) — a snapshot of a
// naive view carries no eps and answers false, and the naive views
// themselves (MemView, DiskView) do not implement the interface at
// all.
type EpsIndexed interface {
	Clustered() bool
	EpsOf(id int64) (float64, error)
	ScanEps(lo, hi float64) (RowCursor, error)
}

var errNotClustered = fmt.Errorf("core: eps requires the Hazy strategy (no eps clustering)")

// Snapshot ------------------------------------------------------------

// Clustered reports whether the snapshot's rows are eps-ordered (Hazy
// strategy at export time).
func (s *Snapshot) Clustered() bool { return s.clustered }

// EpsOf returns the entity's eps under its stripe's stored model.
func (s *Snapshot) EpsOf(id int64) (float64, error) {
	if !s.clustered {
		return 0, errNotClustered
	}
	return s.stripes[stripeOf(id, len(s.stripes))].EpsOf(id)
}

// ScanEps streams the snapshot rows with eps ∈ [lo, hi] in (eps, id)
// order — per stripe a binary search plus a walk over immutable state,
// gathered across stripes; safe from any goroutine. The unbounded
// range is a plain full scan, so it also serves an unclustered
// snapshot, in arrival order.
func (s *Snapshot) ScanEps(lo, hi float64) (RowCursor, error) {
	if !s.clustered && !(math.IsInf(lo, -1) && math.IsInf(hi, 1)) {
		return nil, errNotClustered
	}
	return gatherCursors(len(s.stripes), func(i int) (RowCursor, error) {
		return s.stripes[i].cursor(lo, hi, nil, nil), nil
	})
}

// On-disk stores ------------------------------------------------------

// diskCursor drives a B+-tree cursor over [lo, hi], resolving each
// row's label through a LabelResolver: nil reads the maintained class
// byte (eager); a lazy resolver tests the watermarks and only decodes
// the feature vector for rows inside the band, where the current
// model must decide. It knows nothing of the stripe it serves — just
// a table and a policy.
type diskCursor struct {
	dt  *diskTable
	res *LabelResolver
	cur *btree.Cursor

	// bulk-fill scratch, sized to the batch request on first use
	ks   []btree.Key
	rids []storage.RID
	// f holds the last lazily decoded band row's feature vector; every
	// band row is decoded into it, so a scan allocates only when a
	// row outgrows all before it.
	f vector.Vector
}

// cursor opens a resolver-driven cursor over the clustered index.
func (dt *diskTable) cursor(lo, hi float64, res *LabelResolver) (RowCursor, error) {
	if dt.tree == nil {
		return nil, errNotClustered
	}
	cur, err := dt.tree.NewCursor(lo, hi)
	if err != nil {
		return nil, err
	}
	return &diskCursor{dt: dt, res: res, cur: cur}, nil
}

func (c *diskCursor) Next() (SnapEntry, bool, error) {
	k, rid, ok, err := c.cur.Next()
	if err != nil || !ok {
		return SnapEntry{}, false, err
	}
	label, err := c.rowLabel(k, rid)
	if err != nil {
		return SnapEntry{}, false, err
	}
	return SnapEntry{ID: k.ID, Eps: k.Eps, Label: int8(label)}, true, nil
}

// NextBatch pulls a run of index entries (up to a leaf's worth per
// tree call) and resolves their labels in one pass.
func (c *diskCursor) NextBatch(dst []SnapEntry) (int, error) {
	if cap(c.ks) < len(dst) {
		c.ks = make([]btree.Key, len(dst))
		c.rids = make([]storage.RID, len(dst))
	}
	n, err := c.cur.NextBatch(c.ks[:len(dst)], c.rids[:len(dst)])
	if err != nil || n == 0 {
		return 0, err
	}
	for k := 0; k < n; k++ {
		label, err := c.rowLabel(c.ks[k], c.rids[k])
		if err != nil {
			return 0, err
		}
		dst[k] = SnapEntry{ID: c.ks[k].ID, Eps: c.ks[k].Eps, Label: int8(label)}
	}
	return n, nil
}

func (c *diskCursor) Close() { c.cur.Close() }

// rowLabel resolves one indexed row's label without mutating
// maintenance state (no Skiing waste accrual — the streaming read
// path leaves reorganization scheduling to writes and legacy reads).
func (c *diskCursor) rowLabel(k btree.Key, rid storage.RID) (int, error) {
	if c.res == nil {
		var class int
		err := c.dt.heap.View(rid, func(rec []byte) error {
			class = decodeClass(rec[recClassOff])
			return nil
		})
		return class, err
	}
	if label, certain := c.res.Test(k.Eps); certain {
		return label, nil
	}
	// Decode into the cursor's scratch vector, which the next band row
	// overwrites: Predict must not retain it.
	var label int
	err := c.dt.heap.View(rid, func(rec []byte) error {
		if err := decodeVectorInto(&c.f, rec); err != nil {
			return err
		}
		label = c.res.Predict(c.f)
		return nil
	})
	return label, err
}

// GetEps reads just the eps field of id's record.
func (dt *diskTable) GetEps(id int64) (float64, error) {
	rid, ok := dt.byID[id]
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	var eps float64
	err := dt.heap.View(rid, func(rec []byte) (err error) {
		eps, err = decodeEps(rec)
		return err
	})
	return eps, err
}

var _ EpsIndexed = (*Snapshot)(nil)
