package core

import (
	"fmt"
	"sort"

	"hazy/internal/learn"
)

// SnapEntry is one entity in an immutable Snapshot: its id, the eps
// under the snapshot's stored model (meaningful only for the Hazy
// strategy), and its exact label under the model current at snapshot
// time.
type SnapEntry struct {
	ID    int64
	Eps   float64
	Label int8
}

// Snapshot is an immutable, point-in-time copy of a view's logical
// contents: the current model plus every entity's exact label. It is
// safe for unsynchronized concurrent reads from any number of
// goroutines — nothing in it is ever mutated after construction —
// which is what lets a serving layer answer Single Entity and All
// Members reads without taking the view's locks.
//
// Labels are resolved exactly at build time (watermark-certain labels
// from the stored eps, band labels against the current model), so a
// Snapshot never needs the lazy read path and never accrues Skiing
// waste; the maintenance engine amortizes reorganization through its
// batched write path instead.
type Snapshot struct {
	model     *learn.Model
	entries   []SnapEntry // eps-ascending when clustered
	byID      map[int64]int
	members   int
	clustered bool
	stats     Stats
}

// Snapshotter is implemented by views that can export an immutable
// read snapshot.
type Snapshotter interface {
	Snapshot() (*Snapshot, error)
}

// Model returns the snapshot's model. Callers must not mutate it.
func (s *Snapshot) Model() *learn.Model { return s.model }

// Len returns the number of entities in the snapshot.
func (s *Snapshot) Len() int { return len(s.entries) }

// Entries exposes the snapshot's (id, eps, label) rows — eps-ascending
// for clustered snapshots. The returned slice is shared immutable
// state: callers must not modify it. It lets a SQL layer answer full
// view scans from the snapshot without touching the live tables.
func (s *Snapshot) Entries() []SnapEntry { return s.entries }

// Stats returns the maintenance counters captured at snapshot time.
func (s *Snapshot) Stats() Stats { return s.stats }

// Label answers a Single Entity read from the snapshot.
func (s *Snapshot) Label(id int64) (int, error) {
	i, ok := s.byID[id]
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	return int(s.entries[i].Label), nil
}

// Members answers an All Members read: the ids labeled +1.
func (s *Snapshot) Members() []int64 {
	out := make([]int64, 0, s.members)
	for i := range s.entries {
		if s.entries[i].Label > 0 {
			out = append(out, s.entries[i].ID)
		}
	}
	return out
}

// CountMembers returns |{id : label(id) = +1}| without materializing
// the ids.
func (s *Snapshot) CountMembers() int { return s.members }

// MostUncertain returns up to k entity ids nearest the decision
// boundary by stored eps, walking outward from eps = 0 over the
// clustered order. It requires a snapshot of a Hazy-strategy view
// (the naive layout has no eps ordering).
func (s *Snapshot) MostUncertain(k int) ([]int64, error) {
	if !s.clustered {
		return nil, fmt.Errorf("core: MostUncertain requires the Hazy strategy")
	}
	return walkUncertain(len(s.entries), k,
		func(i int) float64 { return s.entries[i].Eps },
		func(i int) int64 { return s.entries[i].ID }), nil
}

// walkUncertain merges outward from eps = 0 over an eps-ascending
// sequence, returning up to k ids by increasing |eps| — the shared
// core of the MostUncertain reads.
func walkUncertain(n, k int, eps func(int) float64, id func(int) int64) []int64 {
	hi := sort.Search(n, func(i int) bool { return eps(i) >= 0 })
	lo := hi - 1
	out := make([]int64, 0, k)
	for len(out) < k && (lo >= 0 || hi < n) {
		switch {
		case lo < 0:
			out = append(out, id(hi))
			hi++
		case hi >= n:
			out = append(out, id(lo))
			lo--
		case -eps(lo) <= eps(hi):
			out = append(out, id(lo))
			lo--
		default:
			out = append(out, id(hi))
			hi++
		}
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
