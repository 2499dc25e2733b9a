package core

import (
	"fmt"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// MemView is the naive main-memory strategy — the paper's baseline
// and the from-scratch reference the Hazy layouts are checked against:
// no clustering and no watermarks, so an eager update relabels every
// entity and a lazy read classifies every entity under the current
// model. The Hazy strategy's main-memory architecture (Hazy-MM,
// §3.5.1) is a StripedView over memStripeStore; an unstriped Hazy-MM
// view is one stripe.
type MemView struct {
	opts    Options
	trainer *learn.SGD
	entries []*memEntry
	byID    map[int64]*memEntry
	stats   Stats
}

// NewMemView builds a naive main-memory view over entities.
func NewMemView(entities []Entity, opts Options) *MemView {
	opts = opts.withDefaults()
	v := &MemView{
		opts:    opts,
		trainer: learn.NewSGD(opts.SGD),
		entries: make([]*memEntry, 0, len(entities)),
		byID:    make(map[int64]*memEntry, len(entities)),
	}
	for _, ex := range opts.Warm {
		v.trainer.Train(ex.F, ex.Label)
	}
	for _, e := range entities {
		ent := &memEntry{id: e.ID, f: e.F}
		v.entries = append(v.entries, ent)
		v.byID[e.ID] = ent
	}
	v.relabelAll()
	return v
}

// Model returns the current model.
func (v *MemView) Model() *learn.Model { return v.trainer.Model() }

// relabelAll stamps every entry with the current model's label (the
// naive eager maintenance step).
func (v *MemView) relabelAll() {
	m := v.trainer.Model()
	for _, ent := range v.entries {
		ent.label = int8(m.Predict(ent.f))
	}
}

// Update folds in one training example and maintains the view.
func (v *MemView) Update(f vector.Vector, label int) error {
	return v.UpdateBatch([]learn.Example{{F: f, Label: label}})
}

// UpdateBatch trains on a run of examples, then (eager mode) relabels
// every entity once for the whole batch.
func (v *MemView) UpdateBatch(examples []learn.Example) error {
	if len(examples) == 0 {
		return nil
	}
	for _, ex := range examples {
		v.trainer.Train(ex.F, ex.Label)
		v.stats.Updates++
	}
	if v.opts.Mode == Eager {
		v.relabelAll()
	}
	return nil
}

// Insert adds a new entity, classified under the current model.
func (v *MemView) Insert(e Entity) error {
	if _, dup := v.byID[e.ID]; dup {
		return fmt.Errorf("core: duplicate entity %d", e.ID)
	}
	ent := &memEntry{id: e.ID, f: e.F, label: int8(v.trainer.Model().Predict(e.F))}
	v.entries = append(v.entries, ent)
	v.byID[e.ID] = ent
	return nil
}

// label resolves one entry: the maintained label in eager mode, the
// current model's prediction in lazy mode.
func (v *MemView) label(ent *memEntry, cur *learn.Model) int8 {
	if v.opts.Mode == Eager {
		return ent.label
	}
	return int8(cur.Predict(ent.f))
}

// Label answers a Single Entity read.
func (v *MemView) Label(id int64) (int, error) {
	ent, ok := v.byID[id]
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	return int(v.label(ent, v.trainer.Model())), nil
}

// members drives an All Members read, invoking fn for every positive
// entity.
func (v *MemView) members(fn func(id int64)) {
	cur := v.trainer.Model()
	for _, ent := range v.entries {
		if v.label(ent, cur) > 0 {
			fn(ent.id)
		}
	}
}

// Members returns the ids labeled +1.
func (v *MemView) Members() ([]int64, error) {
	var out []int64
	v.members(func(id int64) { out = append(out, id) })
	return out, nil
}

// CountMembers returns |{id : label(id) = +1}|.
func (v *MemView) CountMembers() (int, error) {
	n := 0
	v.members(func(int64) { n++ })
	return n, nil
}

// Retrain rebuilds the model from scratch on examples and brings the
// view up to date (the paper's path for deleted or relabeled training
// examples).
func (v *MemView) Retrain(examples []learn.Example) error {
	v.trainer = learn.NewSGD(v.opts.SGD)
	for _, ex := range examples {
		v.trainer.Train(ex.F, ex.Label)
	}
	if v.opts.Mode == Eager {
		v.relabelAll()
	}
	return nil
}

// MostUncertain always fails: the naive layout keeps no eps ordering
// to walk.
func (v *MemView) MostUncertain(int) ([]int64, error) {
	return nil, fmt.Errorf("core: MostUncertain requires the Hazy strategy")
}

// Stats returns maintenance counters.
func (v *MemView) Stats() Stats { return v.stats }

// Snapshot exports the view's contents with every label resolved
// under the current model: one segment in arrival order, built in
// O(n) — the baseline. It carries no eps ordering, so the snapshot is
// unclustered.
func (v *MemView) Snapshot() (*Snapshot, error) {
	cur := v.trainer.Model()
	g := newMemSegment(len(v.entries))
	for _, ent := range v.entries {
		g.add(ent.id, 0, v.label(ent, cur))
	}
	if err := g.index(); err != nil {
		return nil, err
	}
	return newSnapshot(cur.Clone(), []*memVersion{{seg: g}}, false, v.Stats()), nil
}

var _ View = (*MemView)(nil)
