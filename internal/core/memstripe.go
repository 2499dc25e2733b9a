package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"hazy/internal/learn"
	"hazy/internal/vector"
)

// memEntry is one entity row outside a segment: a row of the naive
// MemView (which uses only label) or of a stripe's insert delta, where
// eps is taken under the stripe's stored model and label is the
// maintained class.
type memEntry struct {
	id    int64
	f     vector.Vector
	eps   float64
	label int8
}

// maxDelta bounds a main-memory stripe's insert delta. Past it the
// delta folds into a fresh segment: an O(n/P) merge amortized over
// maxDelta inserts, while a publish copies at most maxDelta rows and an
// id lookup that misses the segment scans at most maxDelta ids.
const maxDelta = 512

// memSegment is the immutable part of a main-memory stripe: its rows in
// (eps, id) order as parallel columns — ids, eps, the labels assigned
// when the segment was built, and each row's feature vector as its
// number in the live store's vector array — plus a position index from
// id to slot. It is built once per reorganization — work charged to the
// Skiing cost S with the rest of the rewrite — or when the insert delta
// folds in, and never written afterwards, so any number of published
// versions share it. The index maps an id to its vector number, which
// a reorganization never changes, and slotOf maps the number to its
// slot, so a reorganization that adds no rows rebuilds only slotOf and
// shares the map.
type memSegment struct {
	ids       []int64
	eps       []float64
	labels    []int8
	src       []int32         // vector number per slot
	slotOf    []int32         // slot per vector number
	pos       map[int64]int32 // id → vector number; id → slot when src is nil
	positives int             // slots labeled +1
}

func newMemSegment(n int) *memSegment {
	return &memSegment{
		ids:    make([]int64, 0, n),
		eps:    make([]float64, 0, n),
		labels: make([]int8, 0, n),
	}
}

// add appends one row; rows arrive in the segment's final order.
func (g *memSegment) add(id int64, eps float64, label int8) {
	g.ids = append(g.ids, id)
	g.eps = append(g.eps, eps)
	g.labels = append(g.labels, label)
	if label > 0 {
		g.positives++
	}
}

// index builds the position index once every row is in place. Rows
// without vector numbers (versions materialized from disk or from the
// naive view) index their slots directly.
func (g *memSegment) index() error {
	g.pos = make(map[int64]int32, len(g.ids))
	for i, id := range g.ids {
		n := int32(i)
		if g.src != nil {
			n = g.src[i]
		}
		if g.pos[id] = n; len(g.pos) != i+1 {
			return fmt.Errorf("core: duplicate entity %d", id)
		}
	}
	return nil
}

// slot finds id's slot.
func (g *memSegment) slot(id int64) (int, bool) {
	n, ok := g.pos[id]
	if ok && g.slotOf != nil {
		n = g.slotOf[n]
	}
	return int(n), ok
}

// span returns the slot interval [a, b) of rows with eps ∈ [lo, hi]
// (empty when lo > hi).
func (g *memSegment) span(lo, hi float64) (a, b int) {
	a = sort.SearchFloat64s(g.eps, lo)
	b = sort.Search(len(g.eps), func(i int) bool { return g.eps[i] > hi })
	return a, max(a, b)
}

// rowLess is the (eps, id) clustering order.
func rowLess(epsA float64, idA int64, epsB float64, idB int64) bool {
	if epsA != epsB {
		return epsA < epsB
	}
	return idA < idB
}

// deltaSpan is span over an (eps, id)-ordered delta.
func deltaSpan(delta []memEntry, lo, hi float64) (a, b int) {
	a = sort.Search(len(delta), func(i int) bool { return delta[i].eps >= lo })
	b = sort.Search(len(delta), func(i int) bool { return delta[i].eps > hi })
	return a, max(a, b)
}

// memVersion is a main-memory stripe's rows at one instant: the shared
// segment, a band overlay whose labels replace the segment's for slots
// [lo, lo+len(band)), and the insert delta in (eps, id) order. The
// live store owns one whose overlay the eager sweep writes and whose
// delta inserts grow; a publish freezes a copy that shares the segment,
// so it costs O(band + delta), never O(n). Its methods are the stripe
// read routines for both.
type memVersion struct {
	seg   *memSegment
	lo    int
	band  []int8
	delta []memEntry
}

// slotLabel is segment slot i's stored label.
func (v *memVersion) slotLabel(i int) int8 {
	if k := i - v.lo; k >= 0 && k < len(v.band) {
		return v.band[k]
	}
	return v.seg.labels[i]
}

// locate finds id's segment slot, or else its delta row.
func (v *memVersion) locate(id int64) (slot int, d *memEntry, ok bool) {
	if slot, ok := v.seg.slot(id); ok {
		return slot, nil, true
	}
	for k := range v.delta {
		if v.delta[k].id == id {
			return -1, &v.delta[k], true
		}
	}
	return -1, nil, false
}

// label returns id's stored label.
func (v *memVersion) label(id int64) (int8, bool) {
	slot, d, ok := v.locate(id)
	switch {
	case !ok:
		return 0, false
	case d != nil:
		return d.label, true
	}
	return v.slotLabel(slot), true
}

func (v *memVersion) Len() int { return len(v.seg.ids) + len(v.delta) }

func (v *memVersion) Has(id int64) bool {
	_, _, ok := v.locate(id)
	return ok
}

func (v *memVersion) EpsOf(id int64) (float64, error) {
	slot, d, ok := v.locate(id)
	switch {
	case !ok:
		return 0, fmt.Errorf("core: no entity %d", id)
	case d != nil:
		return d.eps, nil
	}
	return v.seg.eps[slot], nil
}

func (v *memVersion) CountRange(lo, hi float64) (int, error) {
	a, b := v.seg.span(lo, hi)
	c, d := deltaSpan(v.delta, lo, hi)
	return b - a + d - c, nil
}

func (v *memVersion) ScanKeysAbove(hi float64, fn func(id int64) error) error {
	c := v.cursor(math.Nextafter(hi, math.Inf(1)), math.Inf(1), nil, nil)
	for {
		e, ok, _ := c.Next()
		if !ok {
			return nil
		}
		if err := fn(e.ID); err != nil {
			return err
		}
	}
}

// NearestZero returns up to k rows in the order the outward walk from
// eps = 0 visits them (uncertainLess). The k nearest on either side lie
// within k rows of zero in the segment and in the delta, so the walk
// runs over those two windows merged.
func (v *memVersion) NearestZero(k int) ([]SnapEntry, error) {
	z := sort.SearchFloat64s(v.seg.eps, 0)
	dz, _ := deltaSpan(v.delta, 0, 0)
	c := &memCursor{v: v,
		i: max(0, z-k), end: min(len(v.seg.ids), z+k),
		j: max(0, dz-k), dend: min(len(v.delta), dz+k)}
	rows := make([]SnapEntry, 0, c.end-c.i+c.dend-c.j)
	for {
		e, ok, _ := c.Next()
		if !ok {
			break
		}
		rows = append(rows, e)
	}
	return walkUncertain(rows, k), nil
}

// cursor streams the rows with eps ∈ [lo, hi] in (eps, id) order. A
// frozen version's stored labels are already exact (res nil); the live
// store resolves lazy labels with its vectors.
func (v *memVersion) cursor(lo, hi float64, res *LabelResolver, feats []vector.Vector) *memCursor {
	a, b := v.seg.span(lo, hi)
	c, d := deltaSpan(v.delta, lo, hi)
	return &memCursor{v: v, res: res, feats: feats, i: a, end: b, j: c, dend: d}
}

// countMembers counts the +1 labels of a version in O(band + delta):
// the segment's count, corrected by the overlay, plus the delta's.
func (v *memVersion) countMembers() int {
	n := v.seg.positives
	for k, l := range v.band {
		if v.seg.labels[v.lo+k] > 0 {
			n--
		}
		if l > 0 {
			n++
		}
	}
	for k := range v.delta {
		if v.delta[k].label > 0 {
			n++
		}
	}
	return n
}

// memCursor merges a segment slot range and a delta range in (eps, id)
// order, resolving labels through res (with the live store's vectors)
// without mutating anything.
type memCursor struct {
	v       *memVersion
	res     *LabelResolver
	feats   []vector.Vector
	i, end  int // segment slots
	j, dend int // delta rows
}

func (c *memCursor) Next() (SnapEntry, bool, error) {
	g, delta := c.v.seg, c.v.delta
	if c.i < c.end && (c.j >= c.dend || rowLess(g.eps[c.i], g.ids[c.i], delta[c.j].eps, delta[c.j].id)) {
		i := c.i
		c.i++
		label := c.v.slotLabel(i)
		if c.res != nil {
			label = c.res.resolve(g.eps[i], label, c.feats[g.src[i]])
		}
		return SnapEntry{ID: g.ids[i], Eps: g.eps[i], Label: label}, true, nil
	}
	if c.j < c.dend {
		d := &delta[c.j]
		c.j++
		return SnapEntry{ID: d.id, Eps: d.eps, Label: c.res.resolve(d.eps, d.label, d.f)}, true, nil
	}
	return SnapEntry{}, false, nil
}

func (c *memCursor) NextBatch(dst []SnapEntry) (int, error) {
	n := 0
	for n < len(dst) {
		e, ok, _ := c.Next()
		if !ok {
			break
		}
		dst[n] = e
		n++
	}
	return n, nil
}

func (c *memCursor) Close() {}

// memStripeStore is the main-memory stripe layout (Hazy-MM, §3.5.1):
// an eps-clustered segment with a hash index — "we still cluster the
// data in main memory, which is crucial to achieve good performance" —
// plus the live band overlay and insert delta. An unstriped Hazy-MM
// view is one such stripe.
type memStripeStore struct {
	memVersion
	// feats holds every segment row's vector by number. It only ever
	// grows, so reorganizing moves numbers, never vectors.
	feats  []vector.Vector
	loaded []Entity     // Load's rows, held for the Rebuild that follows
	keys   []clusterKey // Rebuild's sort scratch
}

// clusterKey is one row being clustered by Rebuild.
type clusterKey struct {
	eps float64
	id  int64
	src int32
}

func newMemStripeStore() *memStripeStore {
	return &memStripeStore{memVersion: memVersion{seg: &memSegment{pos: map[int64]int32{}}}}
}

func (s *memStripeStore) Load(entities []Entity, _ func(f vector.Vector) int) error {
	s.loaded = entities
	return nil
}

// number files f in the vector array and returns its number.
func (s *memStripeStore) number(f vector.Vector) int32 {
	s.feats = append(s.feats, f)
	return int32(len(s.feats) - 1)
}

// install completes a segment built from the live rows — slotOf over
// every vector number, and the position index, shared with the
// previous segment when the rows are the same ones — and makes it the
// live one with an empty overlay and delta.
func (s *memStripeStore) install(g *memSegment, sameRows bool) error {
	g.slotOf = make([]int32, len(s.feats))
	for slot, n := range g.src {
		g.slotOf[n] = int32(slot)
	}
	if sameRows {
		g.pos = s.seg.pos
	} else if err := g.index(); err != nil {
		return err
	}
	s.memVersion = memVersion{seg: g}
	return nil
}

func (s *memStripeStore) Insert(id int64, eps float64, class int, f vector.Vector) error {
	if s.Has(id) {
		return fmt.Errorf("core: duplicate entity %d", id)
	}
	k := sort.Search(len(s.delta), func(i int) bool { return rowLess(eps, id, s.delta[i].eps, s.delta[i].id) })
	s.delta = slices.Insert(s.delta, k, memEntry{id: id, f: f, eps: eps, label: int8(class)})
	if len(s.delta) > maxDelta {
		s.fold()
	}
	return nil
}

// fold merges the delta into a fresh segment, keeping every row's eps
// and stored label: a compaction, not a reorganization — the stored
// model and the watermarks do not change.
func (s *memStripeStore) fold() {
	old := s.seg
	g := newMemSegment(s.Len())
	g.src = make([]int32, 0, s.Len())
	i, k := 0, 0
	for i < len(old.ids) || k < len(s.delta) {
		if k == len(s.delta) || (i < len(old.ids) && rowLess(old.eps[i], old.ids[i], s.delta[k].eps, s.delta[k].id)) {
			g.add(old.ids[i], old.eps[i], s.slotLabel(i))
			g.src = append(g.src, old.src[i])
			i++
			continue
		}
		d := &s.delta[k]
		g.add(d.id, d.eps, d.label)
		g.src = append(g.src, s.number(d.f))
		k++
	}
	_ = s.install(g, false) // Insert already rejected duplicates
}

func (s *memStripeStore) Label(id int64, wm *Watermark, cur *learn.Model, eager bool) (int, error) {
	slot, d, ok := s.locate(id)
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	var eps float64
	var label int8
	var f vector.Vector
	if d != nil {
		eps, label, f = d.eps, d.label, d.f
	} else {
		eps, label, f = s.seg.eps[slot], s.slotLabel(slot), s.feats[s.seg.src[slot]]
	}
	if l, certain := wm.Test(eps); certain {
		return l, nil
	}
	if eager {
		return int(label), nil
	}
	return cur.Predict(f), nil
}

func (s *memStripeStore) Cursor(lo, hi float64, res *LabelResolver) (RowCursor, error) {
	return s.cursor(lo, hi, res, s.feats), nil
}

// Rebuild reclusters every row — segment, delta and loaded — into a
// fresh segment under epsOf with labels sign(eps); published versions
// keep the old one. Walking the old segment in slot order hands the
// sort a nearly sorted input.
func (s *memStripeStore) Rebuild(epsOf func(f vector.Vector) float64) error {
	sameRows := len(s.delta) == 0 && len(s.loaded) == 0
	keys := s.keys[:0]
	for slot, id := range s.seg.ids {
		n := s.seg.src[slot]
		keys = append(keys, clusterKey{eps: epsOf(s.feats[n]), id: id, src: n})
	}
	for _, d := range s.delta {
		keys = append(keys, clusterKey{eps: epsOf(d.f), id: d.id, src: s.number(d.f)})
	}
	for _, e := range s.loaded {
		keys = append(keys, clusterKey{eps: epsOf(e.F), id: e.ID, src: s.number(e.F)})
	}
	slices.SortFunc(keys, func(a, b clusterKey) int {
		switch {
		case a.eps < b.eps:
			return -1
		case a.eps > b.eps:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	g := newMemSegment(len(keys))
	g.src = make([]int32, 0, len(keys))
	for _, k := range keys {
		g.add(k.id, k.eps, int8(learn.Sign(k.eps)))
		g.src = append(g.src, k.src)
	}
	s.keys, s.loaded = keys, nil
	return s.install(g, sameRows)
}

// widen makes the band overlay cover segment slots [a, b), seeding new
// cells from the segment's labels.
func (s *memStripeStore) widen(a, b int) {
	if len(s.band) > 0 {
		a, b = min(a, s.lo), max(b, s.lo+len(s.band))
	}
	if a >= b || (a == s.lo && b-a == len(s.band)) {
		return
	}
	band := slices.Clone(s.seg.labels[a:b])
	copy(band[max(0, s.lo-a):], s.band)
	s.lo, s.band = a, band
}

func (s *memStripeStore) SweepBand(lo, hi float64, predict func(f vector.Vector) int) (int, error) {
	a, b := s.seg.span(lo, hi)
	s.widen(a, b)
	for i := a; i < b; i++ {
		s.band[i-s.lo] = int8(predict(s.feats[s.seg.src[i]]))
	}
	c, d := deltaSpan(s.delta, lo, hi)
	for k := c; k < d; k++ {
		s.delta[k].label = int8(predict(s.delta[k].f))
	}
	return b - a + d - c, nil
}

// Freeze copies the overlay and the delta and shares the segment. A
// lazy stripe's overlay is resolved here, over the rows inside
// [lw, hw]; every other row's stored label is already certain.
func (s *memStripeStore) Freeze(lw, hw float64, res *LabelResolver) (*memVersion, error) {
	v := &memVersion{seg: s.seg, delta: slices.Clone(s.delta)}
	if res == nil {
		v.lo, v.band = s.lo, slices.Clone(s.band)
	} else {
		a, b := s.seg.span(lw, hw)
		v.lo, v.band = a, make([]int8, b-a)
		for i := a; i < b; i++ {
			v.band[i-a] = res.resolve(s.seg.eps[i], s.slotLabel(i), s.feats[s.seg.src[i]])
		}
		for k := range v.delta {
			d := &v.delta[k]
			d.label = res.resolve(d.eps, d.label, d.f)
		}
	}
	return v, nil
}

func (s *memStripeStore) Close() error { return nil }

var _ StripeStore = (*memStripeStore)(nil)
