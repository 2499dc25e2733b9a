package core

import (
	"fmt"
	"sort"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// memEntry is one entity in the main-memory layouts. In a stripe, eps
// is taken under the stripe's stored model and label is the
// maintained class; the naive MemView uses only label.
type memEntry struct {
	id    int64
	f     vector.Vector
	eps   float64
	label int8
}

// memStripeStore is the main-memory stripe layout (Hazy-MM, §3.5.1):
// an eps-clustered slice of entries plus a hash index — "we still
// cluster the data in main memory, which is crucial to achieve good
// performance". An unstriped Hazy-MM view is one such stripe.
type memStripeStore struct {
	entries []*memEntry
	byID    map[int64]*memEntry
}

func newMemStripeStore() *memStripeStore {
	return &memStripeStore{byID: map[int64]*memEntry{}}
}

func (s *memStripeStore) Len() int { return len(s.entries) }

func (s *memStripeStore) Has(id int64) bool {
	_, ok := s.byID[id]
	return ok
}

func (s *memStripeStore) lookup(id int64) (*memEntry, error) {
	ent, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("core: no entity %d", id)
	}
	return ent, nil
}

func (s *memStripeStore) Load(entities []Entity, classOf func(f vector.Vector) int) error {
	for _, e := range entities {
		if _, dup := s.byID[e.ID]; dup {
			return fmt.Errorf("core: duplicate entity %d", e.ID)
		}
		ent := &memEntry{id: e.ID, f: e.F, label: int8(classOf(e.F))}
		s.entries = append(s.entries, ent)
		s.byID[e.ID] = ent
	}
	return nil
}

func (s *memStripeStore) Insert(id int64, eps float64, class int, f vector.Vector) error {
	if _, dup := s.byID[id]; dup {
		return fmt.Errorf("core: duplicate entity %d", id)
	}
	ent := &memEntry{id: id, f: f, eps: eps, label: int8(class)}
	pos := sort.Search(len(s.entries), func(i int) bool {
		o := s.entries[i]
		if o.eps != ent.eps {
			return o.eps > ent.eps
		}
		return o.id > ent.id
	})
	s.entries = append(s.entries, nil)
	copy(s.entries[pos+1:], s.entries[pos:])
	s.entries[pos] = ent
	s.byID[id] = ent
	return nil
}

func (s *memStripeStore) EpsOf(id int64) (float64, error) {
	ent, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	return ent.eps, nil
}

func (s *memStripeStore) Label(id int64, wm *Watermark, cur *learn.Model, eager bool) (int, error) {
	ent, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	if label, certain := wm.Test(ent.eps); certain {
		return label, nil
	}
	if eager {
		return int(ent.label), nil
	}
	return cur.Predict(ent.f), nil
}

func (s *memStripeStore) Rebuild(epsOf func(f vector.Vector) float64) error {
	for _, ent := range s.entries {
		ent.eps = epsOf(ent.f)
		ent.label = int8(learn.Sign(ent.eps))
	}
	sort.Slice(s.entries, func(a, b int) bool {
		ea, eb := s.entries[a], s.entries[b]
		if ea.eps != eb.eps {
			return ea.eps < eb.eps
		}
		return ea.id < eb.id
	})
	return nil
}

// band returns the half-open index interval [lo, hi) of entries with
// eps ∈ [lw, hw].
func (s *memStripeStore) band(lw, hw float64) (lo, hi int) {
	lo = sort.Search(len(s.entries), func(i int) bool { return s.entries[i].eps >= lw })
	hi = sort.Search(len(s.entries), func(i int) bool { return s.entries[i].eps > hw })
	return lo, hi
}

func (s *memStripeStore) SweepBand(lo, hi float64, predict func(f vector.Vector) int) (int, error) {
	a, b := s.band(lo, hi)
	for i := a; i < b; i++ {
		ent := s.entries[i]
		ent.label = int8(predict(ent.f))
	}
	return b - a, nil
}

func (s *memStripeStore) ScanKeysAbove(hi float64, fn func(id int64) error) error {
	_, b := s.band(hi, hi)
	for i := b; i < len(s.entries); i++ {
		if err := fn(s.entries[i].id); err != nil {
			return err
		}
	}
	return nil
}

func (s *memStripeStore) CountRange(lo, hi float64) (int, error) {
	a, b := s.band(lo, hi)
	return b - a, nil
}

func (s *memStripeStore) NearestZero(k int) ([]SnapEntry, error) {
	n := len(s.entries)
	hi := sort.Search(n, func(i int) bool { return s.entries[i].eps >= 0 })
	lo := hi - 1
	out := make([]SnapEntry, 0, k)
	for len(out) < k && (lo >= 0 || hi < n) {
		var pick *memEntry
		switch {
		case lo < 0:
			pick, hi = s.entries[hi], hi+1
		case hi >= n:
			pick, lo = s.entries[lo], lo-1
		case -s.entries[lo].eps <= s.entries[hi].eps:
			pick, lo = s.entries[lo], lo-1
		default:
			pick, hi = s.entries[hi], hi+1
		}
		out = append(out, SnapEntry{ID: pick.id, Eps: pick.eps})
	}
	return out, nil
}

// memStripeCursor walks a band of the clustered slice, resolving
// labels through the resolver without mutating maintenance state.
type memStripeCursor struct {
	s      *memStripeStore
	res    *LabelResolver
	i, end int
}

func (c *memStripeCursor) row(ent *memEntry) (SnapEntry, error) {
	label, err := c.res.resolve(ent.eps,
		func() (int, error) { return int(ent.label), nil },
		func() (vector.Vector, error) { return ent.f, nil })
	if err != nil {
		return SnapEntry{}, err
	}
	return SnapEntry{ID: ent.id, Eps: ent.eps, Label: int8(label)}, nil
}

func (c *memStripeCursor) Next() (SnapEntry, bool, error) {
	if c.i >= c.end {
		return SnapEntry{}, false, nil
	}
	e, err := c.row(c.s.entries[c.i])
	if err != nil {
		return SnapEntry{}, false, err
	}
	c.i++
	return e, true, nil
}

func (c *memStripeCursor) NextBatch(dst []SnapEntry) (int, error) {
	n := len(dst)
	if rest := c.end - c.i; rest < n {
		n = rest
	}
	if n <= 0 {
		return 0, nil
	}
	for k := 0; k < n; k++ {
		e, err := c.row(c.s.entries[c.i+k])
		if err != nil {
			return 0, err
		}
		dst[k] = e
	}
	c.i += n
	return n, nil
}

func (c *memStripeCursor) Close() {}

func (s *memStripeStore) Cursor(lo, hi float64, res *LabelResolver) (RowCursor, error) {
	a, b := s.band(lo, hi)
	return &memStripeCursor{s: s, res: res, i: a, end: b}, nil
}

func (s *memStripeStore) Close() error { return nil }

var _ StripeStore = (*memStripeStore)(nil)
