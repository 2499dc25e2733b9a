package core

import (
	"fmt"
	"math"
	"time"

	"hazy/internal/learn"
	"hazy/internal/obs"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// DiskView is the on-disk architecture for both strategies and
// modes. With the Hazy strategy the record heap is clustered on eps
// (rebuilt into a fresh generation at every reorganization) with a
// B+-tree over (eps, id); the naive strategy stores records in
// arrival order and scans everything.
type DiskView struct {
	opts     Options
	strategy Strategy
	trainer  *learn.SGD
	dt       *diskTable
	wm       *Watermark
	sk       *Skiing
	met      *viewMetrics
	stats    Stats
}

// NewDiskView builds an on-disk view under dir with a buffer pool of
// poolPages pages. For the Hazy strategy the initial load is followed
// by the first clustering reorganization, seeding the Skiing cost S.
func NewDiskView(dir string, poolPages int, entities []Entity, strategy Strategy, opts Options) (*DiskView, error) {
	opts = opts.withDefaults()
	v := &DiskView{
		opts:     opts,
		strategy: strategy,
		trainer:  learn.NewSGD(opts.SGD),
	}
	for _, ex := range opts.Warm {
		v.trainer.Train(ex.F, ex.Label)
	}
	dt, err := newDiskTable(dir, poolPages, strategy == HazyStrategy)
	if err != nil {
		return nil, err
	}
	v.dt = dt
	if strategy == HazyStrategy {
		v.wm = NewWatermark(opts.Norm)
		v.sk = NewSkiing(opts.Alpha)
		v.met = newViewMetrics(opts.Metrics, obs.L("view", opts.MetricsName)...)
		q := v.wm.Q()
		var m float64
		for _, e := range entities {
			if n := e.F.Norm(q); n > m {
				m = n
			}
		}
		v.wm.M = m
	}
	// Initial load in arrival order; the model is zero so every eps
	// is 0 and class is sign(0) = +1.
	cur := v.trainer.Model()
	for _, e := range entities {
		if err := dt.Insert(e.ID, 0, cur.Predict(e.F), e.F); err != nil {
			return nil, err
		}
	}
	if strategy == HazyStrategy {
		if err := v.reorganize(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Close releases the backing file.
func (v *DiskView) Close() error { return v.dt.Close() }

// Model returns the current model.
func (v *DiskView) Model() *learn.Model { return v.trainer.Model() }

// IOStats exposes physical I/O counters of the current generation
// file (for experiment reporting).
func (v *DiskView) IOStats() storage.IOStats { return v.dt.Stats() }

// reorganize reclusters the table under the current model and resets
// the watermarks; its measured duration becomes the Skiing S.
func (v *DiskView) reorganize() error {
	start := time.Now()
	v.wm.Reset(v.trainer.Model(), v.wm.M)
	v.met.observeWMReset()
	if err := v.dt.Rebuild(v.wm.Eps); err != nil {
		return err
	}
	elapsed := time.Since(start)
	v.sk.DidReorganize(elapsed)
	v.met.observeReorg(elapsed)
	return nil
}

// Update folds in one training example and maintains the view.
func (v *DiskView) Update(f vector.Vector, label int) error {
	v.trainer.Train(f, label)
	v.stats.Updates++
	if v.strategy == Naive {
		if v.opts.Mode == Eager {
			// Naive eager: scan every tuple, classify, write back the
			// ones whose label changed (§2.2).
			cur := v.trainer.Model()
			return v.dt.ScanAll(func(rid storage.RID, id int64, eps float64, class int, f vector.Vector) error {
				if nl := cur.Predict(f); nl != class {
					return v.dt.PatchClass(rid, nl)
				}
				return nil
			})
		}
		return nil
	}
	lw, hw := v.wm.Observe(v.trainer.Model())
	if v.opts.Reorg == ReorgAlways {
		return v.reorganize()
	}
	if v.opts.Mode == Lazy {
		return nil
	}
	if v.opts.Reorg == ReorgSkiing && v.sk.ShouldReorganize() {
		return v.reorganize()
	}
	start := time.Now()
	cur := v.trainer.Model()
	reclassified := int64(0)
	err := v.dt.ScanBand(lw, hw, func(rid storage.RID, id int64, eps float64, class int, f vector.Vector) error {
		reclassified++
		if nl := cur.Predict(f); nl != class {
			return v.dt.PatchClass(rid, nl)
		}
		return nil
	})
	if err != nil {
		return err
	}
	v.stats.Reclassified += reclassified
	v.sk.AddCost(time.Since(start))
	v.met.observeSweep(int(reclassified))
	return nil
}

// Insert adds a new entity, classified under the current model.
func (v *DiskView) Insert(e Entity) error {
	cur := v.trainer.Model()
	eps := 0.0
	if v.strategy == HazyStrategy {
		v.wm.ObserveEntity(e.F)
		v.wm.Observe(cur)
		eps = v.wm.Eps(e.F)
	}
	return v.dt.Insert(e.ID, eps, cur.Predict(e.F), e.F)
}

// Label answers a Single Entity read.
func (v *DiskView) Label(id int64) (int, error) {
	if v.opts.Mode == Eager {
		// Labels are maintained; read the class byte.
		return v.dt.GetClass(id)
	}
	eps, _, f, err := v.dt.Get(id)
	if err != nil {
		return 0, err
	}
	if v.strategy == HazyStrategy {
		if label, certain := v.wm.Test(eps); certain {
			return label, nil
		}
	}
	return v.trainer.Model().Predict(f), nil
}

// members drives an All Members read.
func (v *DiskView) members(fn func(id int64)) error {
	switch {
	case v.strategy == Naive && v.opts.Mode == Eager:
		return v.dt.ScanAll(func(_ storage.RID, id int64, _ float64, class int, _ vector.Vector) error {
			if class > 0 {
				fn(id)
			}
			return nil
		})
	case v.strategy == Naive:
		cur := v.trainer.Model()
		return v.dt.ScanAll(func(_ storage.RID, id int64, _ float64, _ int, f vector.Vector) error {
			if cur.Predict(f) > 0 {
				fn(id)
			}
			return nil
		})
	case v.opts.Mode == Eager:
		// Hazy eager: above high water every tuple is positive (ids
		// come straight from the index); inside the band the
		// maintained class byte is current.
		lw, hw := v.wm.Band()
		if err := v.dt.ScanKeysAbove(hw, func(id int64) error { fn(id); return nil }); err != nil {
			return err
		}
		return v.dt.ScanBand(lw, hw, func(_ storage.RID, id int64, _ float64, class int, _ vector.Vector) error {
			if class > 0 {
				fn(id)
			}
			return nil
		})
	default:
		// Hazy lazy (§3.4): read the NR tuples above lw; waste
		// (NR − N+)/NR · S accrues toward reorganization.
		start := time.Now()
		lw, hw := v.wm.Band()
		nPos, nRead := 0, 0
		if err := v.dt.ScanKeysAbove(hw, func(id int64) error {
			fn(id)
			nPos++
			nRead++
			return nil
		}); err != nil {
			return err
		}
		cur := v.trainer.Model()
		err := v.dt.ScanBand(lw, hw, func(_ storage.RID, id int64, _ float64, _ int, f vector.Vector) error {
			nRead++
			if cur.Predict(f) > 0 {
				fn(id)
				nPos++
			}
			return nil
		})
		if err != nil {
			return err
		}
		v.stats.Reclassified += int64(nRead - nPos)
		elapsed := time.Since(start)
		if nRead > 0 {
			v.sk.AddWaste(time.Duration(float64(elapsed) * float64(nRead-nPos) / float64(nRead)))
		}
		if v.opts.Reorg == ReorgSkiing && v.sk.ShouldReorganize() {
			return v.reorganize()
		}
	}
	return nil
}

// Retrain rebuilds the model from scratch on examples and brings the
// view up to date (the paper's path for deleted or relabeled training
// examples).
func (v *DiskView) Retrain(examples []learn.Example) error {
	v.trainer = learn.NewSGD(v.opts.SGD)
	for _, ex := range examples {
		v.trainer.Train(ex.F, ex.Label)
	}
	if v.strategy == HazyStrategy {
		return v.reorganize()
	}
	if v.opts.Mode == Eager {
		cur := v.trainer.Model()
		return v.dt.ScanAll(func(rid storage.RID, _ int64, _ float64, class int, f vector.Vector) error {
			if nl := cur.Predict(f); nl != class {
				return v.dt.PatchClass(rid, nl)
			}
			return nil
		})
	}
	return nil
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

// MostUncertain returns up to k entity ids nearest the decision
// boundary under the stored model (active-learning candidates; see
// Snapshot.MostUncertain). Hazy strategy only.
func (v *DiskView) MostUncertain(k int) ([]int64, error) {
	if v.strategy != HazyStrategy {
		return nil, fmt.Errorf("core: MostUncertain requires the Hazy strategy")
	}
	keys, err := v.dt.NearestZero(k)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(keys))
	for i, key := range keys {
		out[i] = key.ID
	}
	return out, nil
}

// Stats returns maintenance counters.
func (v *DiskView) Stats() Stats {
	s := v.stats
	if v.strategy == HazyStrategy {
		s.Reorgs = v.sk.Reorgs()
		s.IncSteps = v.sk.IncSteps()
		s.LastReorgNs = v.sk.S().Nanoseconds()
		s.LowWater, s.HighWater = v.wm.Band()
		if n, err := v.dt.CountAbove(s.LowWater); err == nil {
			above, err2 := v.dt.CountAbove(math.Nextafter(s.HighWater, math.Inf(1)))
			if err2 == nil {
				s.BandTuples = n - above
			}
		}
	}
	return s
}
