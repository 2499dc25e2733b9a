package core

import (
	"fmt"
	"math"
	"sort"

	"hazy/internal/learn"
)

// SnapEntry is one row of a view read: its id, the eps under its
// stripe's stored model (meaningful only for the Hazy strategy), and
// its exact label under the model current at read or publish time.
type SnapEntry struct {
	ID    int64
	Eps   float64
	Label int8
}

// Snapshot is an immutable published version of a view: the model at
// publish time plus one frozen stripe version per stripe, every label
// resolved exactly (watermark-certain labels from the stored eps, band
// labels against the current model). It is safe for unsynchronized
// concurrent reads from any number of goroutines — nothing in it is
// ever mutated after construction — which is what lets a serving layer
// answer Single Entity and All Members reads without taking the view's
// locks.
//
// A main-memory stripe's version shares the stripe's immutable segment
// and copies only its band overlay and insert delta, so publishing
// costs O(P + band + delta), not O(n). On-disk stripes materialize
// every row at publish. Reads run the same stripe routines as the live
// main-memory store and gather across stripes like the live
// StripedView. A Snapshot never needs the lazy read path and never
// accrues Skiing waste; the maintenance engine amortizes
// reorganization through its batched write path instead.
type Snapshot struct {
	model     *learn.Model
	stripes   []*memVersion // routed by stripeOf
	members   int
	clustered bool
	stats     Stats
}

// Snapshotter is implemented by views that can export an immutable
// read snapshot.
type Snapshotter interface {
	Snapshot() (*Snapshot, error)
}

// newSnapshot assembles frozen stripe versions under the model they
// were resolved against.
func newSnapshot(model *learn.Model, stripes []*memVersion, clustered bool, stats Stats) *Snapshot {
	s := &Snapshot{model: model, stripes: stripes, clustered: clustered, stats: stats}
	for _, v := range stripes {
		s.members += v.countMembers()
	}
	return s
}

// Model returns the snapshot's model. Callers must not mutate it.
func (s *Snapshot) Model() *learn.Model { return s.model }

// Len returns the number of entities in the snapshot.
func (s *Snapshot) Len() int {
	n := 0
	for _, v := range s.stripes {
		n += v.Len()
	}
	return n
}

// Stats returns the maintenance counters captured at snapshot time.
func (s *Snapshot) Stats() Stats { return s.stats }

// Label answers a Single Entity read from the snapshot.
func (s *Snapshot) Label(id int64) (int, error) {
	label, ok := s.stripes[stripeOf(id, len(s.stripes))].label(id)
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	return int(label), nil
}

// Members answers an All Members read: the ids labeled +1, in the
// snapshot's scan order ((eps, id) for clustered snapshots).
func (s *Snapshot) Members() []int64 {
	out := make([]int64, 0, s.members)
	c, _ := s.ScanEps(math.Inf(-1), math.Inf(1)) // frozen versions never fail
	defer c.Close()
	for {
		e, ok, _ := c.Next()
		if !ok {
			return out
		}
		if e.Label > 0 {
			out = append(out, e.ID)
		}
	}
}

// CountMembers returns |{id : label(id) = +1}| without materializing
// the ids.
func (s *Snapshot) CountMembers() int { return s.members }

// MostUncertain returns up to k entity ids nearest the decision
// boundary by stored eps, in the order of an outward walk from eps = 0
// over the merged clustered order. It requires a snapshot of a Hazy-
// strategy view (the naive layout has no eps ordering).
func (s *Snapshot) MostUncertain(k int) ([]int64, error) {
	if !s.clustered {
		return nil, fmt.Errorf("core: MostUncertain requires the Hazy strategy")
	}
	if k <= 0 {
		return nil, nil
	}
	cand := make([][]SnapEntry, len(s.stripes))
	for i, v := range s.stripes {
		cand[i], _ = v.NearestZero(k)
	}
	return gatherUncertain(cand, k), nil
}

// walkUncertain merges outward from eps = 0 over eps-ascending rows,
// returning up to k of them by increasing |eps| — the per-stripe core
// of the MostUncertain reads.
func walkUncertain(rows []SnapEntry, k int) []SnapEntry {
	n := len(rows)
	hi := sort.Search(n, func(i int) bool { return rows[i].Eps >= 0 })
	lo := hi - 1
	out := make([]SnapEntry, 0, min(k, n))
	for len(out) < k && (lo >= 0 || hi < n) {
		if hi >= n || (lo >= 0 && -rows[lo].Eps <= rows[hi].Eps) {
			out = append(out, rows[lo])
			lo--
		} else {
			out = append(out, rows[hi])
			hi++
		}
	}
	return out
}

// uncertainLess is the order walkUncertain emits: by |eps|; on a tie
// the negative side first, walking down (larger id first), then the
// non-negative side walking up.
func uncertainLess(a, b SnapEntry) bool {
	if aa, ab := math.Abs(a.Eps), math.Abs(b.Eps); aa != ab {
		return aa < ab
	}
	if an, bn := a.Eps < 0, b.Eps < 0; an != bn {
		return an
	} else if an {
		return a.ID > b.ID
	}
	return a.ID < b.ID
}

// gatherUncertain merges per-stripe boundary walks into the k ids
// nearest the boundary overall — the order one walk over the merged
// stripes would produce.
func gatherUncertain(cand [][]SnapEntry, k int) []int64 {
	var all []SnapEntry
	for _, c := range cand {
		all = append(all, c...)
	}
	sort.Slice(all, func(a, b int) bool { return uncertainLess(all[a], all[b]) })
	out := make([]int64, min(k, len(all)))
	for i := range out {
		out[i] = all[i].ID
	}
	return out
}

// BatchUpdater is implemented by views that can group-apply a run of
// training examples: every example is folded into the model (and its
// drift into the watermarks), but the expensive maintenance sweep
// over [lw, hw] runs once per batch instead of once per update.
type BatchUpdater interface {
	UpdateBatch(examples []learn.Example) error
}

// ApplyBatch folds examples into v with one group-applied maintenance
// step when v supports it, falling back to per-example Updates
// otherwise. Both paths leave the view in the same logical state.
func ApplyBatch(v View, examples []learn.Example) error {
	if b, ok := v.(BatchUpdater); ok {
		return b.UpdateBatch(examples)
	}
	for _, ex := range examples {
		if err := v.Update(ex.F, ex.Label); err != nil {
			return err
		}
	}
	return nil
}
