package core

import (
	"cmp"
	"fmt"
	"maps"
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

// rebaseFrac bounds a segment's recent id map at 1/rebaseFrac of its
// base map. Past it the next segment rebuilds the base: an O(n/P) map
// build amortized over n/(P·rebaseFrac) new rows, while a segment that
// adds rows copies at most that many ids.
const rebaseFrac = 8

// memSegment is the immutable part of a main-memory stripe: its rows in
// (eps, id) order as parallel columns — ids, eps, the labels assigned
// when the segment was built, and each row's feature vector as its
// number in the live store's vector arena — plus an id index. It is
// built once per reorganization — work charged to the Skiing cost S
// with the rest of the rewrite — or when the insert delta folds in, and
// never written afterwards, so any number of published versions share
// it.
//
// The index maps an id to its vector number, which a reorganization
// never changes, and slotOf maps the number to its slot. Its base map
// is shared, read-only, by every later segment; recent holds only the
// ids numbered since the base was built. So a reorganization or fold
// that adds k rows re-indexes those k (plus the recent ones it copies),
// not all n.
type memSegment struct {
	ids       []int64
	eps       []float64
	labels    []int8
	src       []int32         // vector number per slot
	slotOf    []int32         // slot per vector number
	base      map[int64]int32 // id → vector number; id → slot when src is nil
	recent    map[int64]int32 // id → vector number, for ids not in base
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

// index builds a fresh base map once every row is in place. Rows
// without vector numbers (versions materialized from disk or from the
// naive view) index their slots directly.
func (g *memSegment) index() error {
	g.base, g.recent = make(map[int64]int32, len(g.ids)), nil
	for i, id := range g.ids {
		n := int32(i)
		if g.src != nil {
			n = g.src[i]
		}
		if g.base[id] = n; len(g.base) != i+1 {
			return fmt.Errorf("core: duplicate entity %d", id)
		}
	}
	return nil
}

// extend indexes a segment holding prev's rows plus the rows numbered
// first, first+1, … for the ids in added. It shares prev's base map and
// copies prev's recent one, unless the recent ids would pass
// 1/rebaseFrac of the base: then it builds a fresh base. Only Load's
// rows can repeat an id (Insert rejects duplicates), and they always
// take the fresh-base path, whose index rejects them.
func (g *memSegment) extend(prev *memSegment, added []int64, first int32) error {
	if len(added) == 0 {
		g.base, g.recent = prev.base, prev.recent
		return nil
	}
	if (len(prev.recent)+len(added))*rebaseFrac > len(prev.base) {
		return g.index()
	}
	g.base = prev.base
	g.recent = make(map[int64]int32, len(prev.recent)+len(added))
	maps.Copy(g.recent, prev.recent)
	for k, id := range added {
		g.recent[id] = first + int32(k)
	}
	return nil
}

// slot finds id's slot.
func (g *memSegment) slot(id int64) (int, bool) {
	n, ok := g.base[id]
	if !ok {
		n, ok = g.recent[id]
	}
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
func (v *memVersion) cursor(lo, hi float64, res *LabelResolver, vecs *vecArena) *memCursor {
	a, b := v.seg.span(lo, hi)
	c, d := deltaSpan(v.delta, lo, hi)
	return &memCursor{v: v, res: res, vecs: vecs, i: a, end: b, j: c, dend: d}
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
	vecs    *vecArena
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
			label = c.res.resolve(g.eps[i], label, c.vecs.at(g.src[i]))
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

// vecArena holds feature vectors by number in flat columns: vector k
// is (idx, val)[off[k]:off[k+1]]. It is append-only, so numbers never
// move. A dense vector is stored with explicit indices 0…n−1, so that
// vector.Dot's sparse path sums the same terms in the same order as its
// dense path did.
type vecArena struct {
	off []int32 // len = vectors + 1 once any is stored
	idx []int32
	val []float64
}

func (a *vecArena) len() int { return max(0, len(a.off)-1) }

// at reads vector k in place.
func (a *vecArena) at(k int32) vector.Vector {
	lo, hi := a.off[k], a.off[k+1]
	return vector.Vector{Idx: a.idx[lo:hi:hi], Val: a.val[lo:hi:hi]}
}

// add appends f and returns its number.
func (a *vecArena) add(f vector.Vector) int32 {
	if len(a.off) == 0 {
		a.off = append(a.off, 0)
	}
	if f.IsDense() {
		for i := range f.Val {
			a.idx = append(a.idx, int32(i))
		}
		a.val = append(a.val, f.Val...)
	} else {
		a.idx = append(a.idx, f.Idx...)
		a.val = append(a.val, f.Val[:len(f.Idx)]...)
	}
	a.off = append(a.off, int32(len(a.val)))
	return int32(len(a.off) - 2)
}

// reserve makes room for rows more vectors holding vals more values.
// When a column must grow it grows by an eighth more than asked, so a
// write path that numbers a few rows at a time rarely copies the arena.
func (a *vecArena) reserve(rows, vals int) {
	a.off = roomFor(a.off, rows+1)
	a.idx = roomFor(a.idx, vals)
	a.val = roomFor(a.val, vals)
}

func roomFor[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, n+(len(s)+n)/8)
}

// reset empties the arena, keeping its capacity.
func (a *vecArena) reset() {
	a.off, a.idx, a.val = a.off[:0], a.idx[:0], a.val[:0]
}

// memStripeStore is the main-memory stripe layout (Hazy-MM, §3.5.1):
// an eps-clustered segment with a hash index — "we still cluster the
// data in main memory, which is crucial to achieve good performance" —
// plus the live band overlay and insert delta. An unstriped Hazy-MM
// view is one such stripe.
//
// The clustering extends to the feature vectors. They live in a flat
// arena by number, which Rebuild reads front to back. The eager sweep
// reads the band's vectors from two band columns in slot order: up
// holds slots [bandAt, lo+len(band)) ascending, and down holds slots
// [lo, bandAt) descending, nearest first. Between reorganizations the
// band only widens (lw only falls and hw only rises), so both columns
// only append; install empties them.
type memStripeStore struct {
	memVersion
	vecs     vecArena
	up, down vecArena
	bandAt   int          // the slot the band started at
	loaded   []Entity     // Load's rows, held for the Rebuild that follows
	added    []int64      // ids numbered since the last install, in number order
	keys     []clusterKey // Rebuild's sort scratch
	eps      []float64    // Rebuild's eps by vector number
}

// clusterKey is one row being clustered by Rebuild.
type clusterKey struct {
	eps float64
	id  int64
	src int32
}

func newMemStripeStore() *memStripeStore {
	return &memStripeStore{memVersion: memVersion{seg: &memSegment{}}}
}

func (s *memStripeStore) Load(entities []Entity, _ func(f vector.Vector) int) error {
	s.loaded = entities
	return nil
}

// number files a new row's vector in the arena and returns its number;
// the next install indexes its id.
func (s *memStripeStore) number(id int64, f vector.Vector) int32 {
	s.added = append(s.added, id)
	return s.vecs.add(f)
}

// install completes a segment built from the live rows — slotOf over
// every vector number, and the id index, extended from the previous
// segment's by the rows numbered since — and makes it the live one
// with an empty overlay and delta.
func (s *memStripeStore) install(g *memSegment) error {
	g.slotOf = make([]int32, s.vecs.len())
	for slot, n := range g.src {
		g.slotOf[n] = int32(slot)
	}
	err := g.extend(s.seg, s.added, int32(s.vecs.len()-len(s.added)))
	s.added = nil
	if err != nil {
		return err
	}
	s.memVersion = memVersion{seg: g}
	s.up.reset()
	s.down.reset()
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
	vals := 0
	for k := range s.delta {
		vals += len(s.delta[k].f.Val)
	}
	s.vecs.reserve(len(s.delta), vals)
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
		g.src = append(g.src, s.number(d.id, d.f))
		k++
	}
	_ = s.install(g) // Insert already rejected duplicates
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
		eps, label, f = s.seg.eps[slot], s.slotLabel(slot), s.vecs.at(s.seg.src[slot])
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
	return s.cursor(lo, hi, res, &s.vecs), nil
}

// Rebuild reclusters every row — segment, delta and loaded — into a
// fresh segment under epsOf with labels sign(eps); published versions
// keep the old one. The new rows are numbered first; then one pass over
// the arena in number order takes every row's eps, and the keys are
// built in the old segment's slot order, which hands the sort a nearly
// sorted input.
func (s *memStripeStore) Rebuild(epsOf func(f vector.Vector) float64) error {
	vals := 0
	for k := range s.delta {
		vals += len(s.delta[k].f.Val)
	}
	for _, e := range s.loaded {
		vals += len(e.F.Val)
	}
	s.vecs.reserve(len(s.delta)+len(s.loaded), vals)
	first := int32(s.vecs.len())
	for k := range s.delta {
		s.number(s.delta[k].id, s.delta[k].f)
	}
	for _, e := range s.loaded {
		s.number(e.ID, e.F)
	}
	eps := slices.Grow(s.eps[:0], s.vecs.len())
	for n := range int32(s.vecs.len()) {
		eps = append(eps, epsOf(s.vecs.at(n)))
	}
	keys := slices.Grow(s.keys[:0], s.vecs.len())
	for slot, id := range s.seg.ids {
		n := s.seg.src[slot]
		keys = append(keys, clusterKey{eps: eps[n], id: id, src: n})
	}
	for k, id := range s.added {
		n := first + int32(k)
		keys = append(keys, clusterKey{eps: eps[n], id: id, src: n})
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
	s.keys, s.eps, s.loaded = keys, eps, nil
	return s.install(g)
}

// widen makes the band overlay cover segment slots [a, b), seeding new
// cells from the segment's labels and filing their vectors in the band
// columns.
func (s *memStripeStore) widen(a, b int) {
	if len(s.band) == 0 {
		s.lo, s.bandAt = a, a
	} else {
		a, b = min(a, s.lo), max(b, s.lo+len(s.band))
	}
	hi := s.lo + len(s.band)
	if a >= b || (a == s.lo && b == hi) {
		return
	}
	band := slices.Clone(s.seg.labels[a:b])
	copy(band[s.lo-a:], s.band)
	for i := hi; i < b; i++ {
		s.up.add(s.vecs.at(s.seg.src[i]))
	}
	for i := s.lo - 1; i >= a; i-- {
		s.down.add(s.vecs.at(s.seg.src[i]))
	}
	s.lo, s.band = a, band
}

// SweepBand reclassifies the band's segment rows from the band columns,
// each in memory order, then the delta's.
func (s *memStripeStore) SweepBand(lo, hi float64, predict func(f vector.Vector) int) (int, error) {
	a, b := s.seg.span(lo, hi)
	s.widen(a, b)
	// Slot i < bandAt is down's vector bandAt−1−i; slot i ≥ bandAt is
	// up's vector i−bandAt.
	for k := s.bandAt - min(b, s.bandAt); k < s.bandAt-a; k++ {
		s.band[s.bandAt-1-k-s.lo] = int8(predict(s.down.at(int32(k))))
	}
	for i := max(a, s.bandAt); i < b; i++ {
		s.band[i-s.lo] = int8(predict(s.up.at(int32(i - s.bandAt))))
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
			v.band[i-a] = res.resolve(s.seg.eps[i], s.slotLabel(i), s.vecs.at(s.seg.src[i]))
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
