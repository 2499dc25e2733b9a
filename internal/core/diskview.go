package core

import (
	"hazy/internal/learn"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// DiskView is the naive on-disk strategy — the paper's Naive-OD
// baseline (the "OD Naive" rows of Figs 4, 5 and 11): records in
// arrival order in heap pages behind a buffer pool, no clustering and
// no watermarks, so an eager update rescans every record and patches
// the labels that changed, and a lazy read classifies every record
// under the current model. The Hazy strategy's on-disk and hybrid
// architectures are StripedViews over diskStripeStore and
// hybridStripeStore; an unstriped one is one stripe.
type DiskView struct {
	opts    Options
	trainer *learn.SGD
	dt      *diskTable
	stats   Stats
}

// NewDiskView builds a naive on-disk view under dir with a buffer pool
// of poolPages pages.
func NewDiskView(dir string, poolPages int, entities []Entity, opts Options) (*DiskView, error) {
	opts = opts.withDefaults()
	v := &DiskView{opts: opts, trainer: learn.NewSGD(opts.SGD)}
	for _, ex := range opts.Warm {
		v.trainer.Train(ex.F, ex.Label)
	}
	dt, err := newDiskTable(dir, poolPages, false)
	if err != nil {
		return nil, err
	}
	v.dt = dt
	if err := dt.BulkInsert(entities, v.trainer.Model().Predict); err != nil {
		dt.Close()
		return nil, err
	}
	return v, nil
}

// Close releases the backing file.
func (v *DiskView) Close() error { return v.dt.Close() }

// Model returns the current model.
func (v *DiskView) Model() *learn.Model { return v.trainer.Model() }

// relabelAll scans every record, classifies it under the current
// model, and writes back the labels that changed (the naive eager
// maintenance step, §2.2).
func (v *DiskView) relabelAll() error {
	cur := v.trainer.Model()
	return v.dt.ScanAll(func(rid storage.RID, _ int64, _ float64, class int, f vector.Vector) error {
		if nl := cur.Predict(f); nl != class {
			return v.dt.PatchClass(rid, nl)
		}
		return nil
	})
}

// Update folds in one training example and maintains the view.
func (v *DiskView) Update(f vector.Vector, label int) error {
	v.trainer.Train(f, label)
	v.stats.Updates++
	if v.opts.Mode == Eager {
		return v.relabelAll()
	}
	return nil
}

// Insert adds a new entity, classified under the current model.
func (v *DiskView) Insert(e Entity) error {
	return v.dt.Insert(e.ID, 0, v.trainer.Model().Predict(e.F), e.F)
}

// label resolves one record: the maintained class in eager mode, the
// current model's prediction in lazy mode.
func (v *DiskView) label(class int, f vector.Vector, cur *learn.Model) int {
	if v.opts.Mode == Eager {
		return class
	}
	return cur.Predict(f)
}

// Label answers a Single Entity read.
func (v *DiskView) Label(id int64) (int, error) {
	if v.opts.Mode == Eager {
		return v.dt.GetClass(id)
	}
	_, class, f, err := v.dt.Get(id)
	if err != nil {
		return 0, err
	}
	return v.label(class, f, v.trainer.Model()), nil
}

// members drives an All Members read, invoking fn for every positive
// entity.
func (v *DiskView) members(fn func(id int64)) error {
	cur := v.trainer.Model()
	return v.dt.ScanAll(func(_ storage.RID, id int64, _ float64, class int, f vector.Vector) error {
		if v.label(class, f, cur) > 0 {
			fn(id)
		}
		return nil
	})
}

// Members returns the ids labeled +1.
func (v *DiskView) Members() ([]int64, error) {
	var out []int64
	err := v.members(func(id int64) { out = append(out, id) })
	return out, err
}

// CountMembers returns the number of positive entities.
func (v *DiskView) CountMembers() (int, error) {
	n := 0
	err := v.members(func(int64) { n++ })
	return n, err
}

// Retrain rebuilds the model from scratch on examples and brings the
// view up to date (the paper's path for deleted or relabeled training
// examples).
func (v *DiskView) Retrain(examples []learn.Example) error {
	v.trainer = learn.NewSGD(v.opts.SGD)
	for _, ex := range examples {
		v.trainer.Train(ex.F, ex.Label)
	}
	if v.opts.Mode == Eager {
		return v.relabelAll()
	}
	return nil
}

// Stats returns maintenance counters.
func (v *DiskView) Stats() Stats { return v.stats }

var _ View = (*DiskView)(nil)
