package core

import (
	"container/heap"
	"fmt"
	"math"
	"sync/atomic"

	"hazy/internal/btree"
	"hazy/internal/learn"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// diskStripeStore is the on-disk stripe layout: one generation file of
// heap pages with a clustered B+-tree on (eps, id) behind a private
// buffer pool, in the stripe's own subdirectory. Giving every stripe
// its own diskTable (instead of key-prefixed ranges in one shared
// tree) keeps the parallel sections genuinely independent — no shared
// pager lock, no cross-stripe page contention — and makes each
// per-stripe reorganization one diskTable Rebuild: scan, sort n/P
// records, and bulk-load a fresh generation with batched page writes
// through the buffer pool. An unstriped Hazy-OD view is one such
// stripe.
type diskStripeStore struct {
	dt *diskTable
}

// newDiskStripeStore opens the stripe's table under dir with its own
// buffer pool of poolPages pages.
func newDiskStripeStore(dir string, poolPages int) (*diskStripeStore, error) {
	dt, err := newDiskTable(dir, poolPages, true)
	if err != nil {
		return nil, err
	}
	return &diskStripeStore{dt: dt}, nil
}

func (s *diskStripeStore) Len() int { return s.dt.Len() }

func (s *diskStripeStore) Has(id int64) bool {
	_, ok := s.dt.byID[id]
	return ok
}

// Load bulk-loads the initial records through the heap's batched page
// writer, skipping the B+-tree entirely: the initial clustering
// Rebuild that always follows rewrites the tree from scratch anyway,
// so per-record tree descents during load would be pure waste.
func (s *diskStripeStore) Load(entities []Entity, classOf func(f vector.Vector) int) error {
	return s.dt.BulkInsert(entities, classOf)
}

func (s *diskStripeStore) Insert(id int64, eps float64, class int, f vector.Vector) error {
	return s.dt.Insert(id, eps, class, f)
}

func (s *diskStripeStore) EpsOf(id int64) (float64, error) { return s.dt.GetEps(id) }

// Label reads id's record once: the stored eps for the watermark test,
// then the class byte (eager) or the feature vector, decoded in place
// under the page pin (lazy).
func (s *diskStripeStore) Label(id int64, wm *Watermark, cur *learn.Model, eager bool) (int, error) {
	rid, ok := s.dt.byID[id]
	if !ok {
		return 0, fmt.Errorf("core: no entity %d", id)
	}
	var label int
	err := s.dt.heap.View(rid, func(rec []byte) error {
		eps, err := decodeEps(rec)
		if err != nil {
			return err
		}
		var certain bool
		if label, certain = wm.Test(eps); certain {
			return nil
		}
		if eager {
			label = decodeClass(rec[recClassOff])
			return nil
		}
		_, _, _, f, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		label = cur.Predict(f)
		return nil
	})
	return label, err
}

func (s *diskStripeStore) Rebuild(epsOf func(f vector.Vector) float64) error {
	return s.dt.Rebuild(epsOf)
}

// SweepBand walks the band in (eps, id) order through one heap page
// run: each page is pinned once per run of band rows it holds, each
// inline record's vector is decoded into one reused scratch, and a
// changed label is written into the record's class byte in place under
// that pin — the paper's copy-free class update (App. B.1). Overflow
// records, rare and spread over several pages, are read with Get and
// patched through their chain instead.
func (s *diskStripeStore) SweepBand(lo, hi float64, predict func(f vector.Vector) int) (int, error) {
	run := s.dt.heap.Run()
	defer run.Close()
	var f vector.Vector
	n := 0
	err := s.dt.tree.Range(lo, hi, func(_ btree.Key, rid storage.RID) (bool, error) {
		n++
		rec, inline, err := run.Record(rid)
		if err != nil {
			return false, err
		}
		if !inline {
			return true, s.dt.sweepOverflow(rid, predict)
		}
		if err := decodeVectorInto(&f, rec); err != nil {
			return false, err
		}
		if b := classByte(predict(f)); rec[recClassOff] != b {
			rec[recClassOff] = b
			run.MarkDirty()
		}
		return true, nil
	})
	return n, err
}

func (s *diskStripeStore) ScanKeysAbove(hi float64, fn func(id int64) error) error {
	return s.dt.ScanKeysAbove(hi, fn)
}

// CountRange counts the band's index entries with one walk over
// [lo, hi].
func (s *diskStripeStore) CountRange(lo, hi float64) (int, error) {
	n := 0
	err := s.dt.tree.Range(lo, hi, func(btree.Key, storage.RID) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

func (s *diskStripeStore) NearestZero(k int) ([]SnapEntry, error) {
	keys, err := s.dt.NearestZero(k)
	if err != nil {
		return nil, err
	}
	out := make([]SnapEntry, len(keys))
	for i, key := range keys {
		out[i] = SnapEntry{ID: key.ID, Eps: key.Eps}
	}
	return out, nil
}

func (s *diskStripeStore) Cursor(lo, hi float64, res *LabelResolver) (RowCursor, error) {
	return s.dt.cursor(lo, hi, res)
}

// Freeze materializes every row into a one-segment version: the O(n)
// publish of a disk-resident stripe.
func (s *diskStripeStore) Freeze(_, _ float64, res *LabelResolver) (*memVersion, error) {
	c, err := s.Cursor(math.Inf(-1), math.Inf(1), res)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	g := newMemSegment(s.Len())
	buf := make([]SnapEntry, 512)
	for {
		n, err := c.NextBatch(buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		for _, e := range buf[:n] {
			g.add(e.ID, e.Eps, e.Label)
		}
	}
	if err := g.index(); err != nil {
		return nil, err
	}
	return &memVersion{seg: g}, nil
}

func (s *diskStripeStore) Close() error { return s.dt.Close() }

// hybridStripeStore adds the §3.5.2 in-memory summaries to the
// on-disk stripe: the ε-map (id → eps, no feature vectors) answers
// every eps lookup without touching disk, and a bounded buffer of the
// entities nearest the decision boundary absorbs most reads in the
// uncertain band. Both are rebuilt inside Rebuild, after every
// reorganization: that rebuild is the hybrid's "more expensive resort"
// (App. C.2) and is timed into the stripe's Skiing cost S, and
// because the generic striped layer triggers it, the lazy-mode waste
// discipline composes per stripe with no extra wiring.
type hybridStripeStore struct {
	*diskStripeStore
	frac      float64
	bufferCap int
	epsMap    map[int64]float64
	buffer    map[int64]vector.Vector

	// Hit counters are atomic: Label is a read and runs beside other
	// readers (App. C.2), so its bookkeeping must not introduce a
	// write-write race.
	hitEps, hitBuffer, hitDisk atomic.Int64
}

func newHybridStripeStore(dir string, poolPages int, bufferFrac float64) (*hybridStripeStore, error) {
	ds, err := newDiskStripeStore(dir, poolPages)
	if err != nil {
		return nil, err
	}
	return &hybridStripeStore{diskStripeStore: ds, frac: bufferFrac, epsMap: map[int64]float64{}}, nil
}

// Load sizes the boundary buffer off the stripe's share of the entity
// set (paper default 1%, at least one entry) before bulk-loading the
// disk records.
func (s *hybridStripeStore) Load(entities []Entity, classOf func(f vector.Vector) int) error {
	s.bufferCap = int(s.frac * float64(len(entities)))
	if s.bufferCap < 1 {
		s.bufferCap = 1
	}
	return s.diskStripeStore.Load(entities, classOf)
}

// rebuildMemory reconstructs the ε-map and the boundary buffer from
// the freshly clustered disk table.
func (s *hybridStripeStore) rebuildMemory() error {
	if s.bufferCap < 1 {
		s.bufferCap = 1
	}
	s.epsMap = make(map[int64]float64, s.dt.Len())
	bh := make(bufferHeap, 0, s.bufferCap+1)
	err := s.dt.ScanAll(func(_ storage.RID, id int64, eps float64, _ int, f vector.Vector) error {
		s.epsMap[id] = eps
		heap.Push(&bh, bufferEntry{id: id, abs: math.Abs(eps), f: f})
		if len(bh) > s.bufferCap {
			heap.Pop(&bh)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.buffer = make(map[int64]vector.Vector, len(bh))
	for _, e := range bh {
		s.buffer[e.id] = e.f
	}
	return nil
}

func (s *hybridStripeStore) Rebuild(epsOf func(f vector.Vector) float64) error {
	if err := s.diskStripeStore.Rebuild(epsOf); err != nil {
		return err
	}
	return s.rebuildMemory()
}

func (s *hybridStripeStore) Insert(id int64, eps float64, class int, f vector.Vector) error {
	if err := s.diskStripeStore.Insert(id, eps, class, f); err != nil {
		return err
	}
	s.epsMap[id] = eps
	if len(s.buffer) < s.bufferCap {
		s.buffer[id] = f
	}
	return nil
}

// EpsOf answers from the ε-map (App. B.4's first stop) before falling
// back to disk.
func (s *hybridStripeStore) EpsOf(id int64) (float64, error) {
	if eps, ok := s.epsMap[id]; ok {
		return eps, nil
	}
	return s.diskStripeStore.EpsOf(id)
}

// Label implements the App. B.4 lookup: the watermark test on the
// ε-map, then the buffer — whose vectors are classified under the
// current model in either mode (in eager mode that equals the
// maintained class, since the band was swept under it) — then disk.
// Every call counts exactly one hit.
func (s *hybridStripeStore) Label(id int64, wm *Watermark, cur *learn.Model, eager bool) (int, error) {
	if eps, ok := s.epsMap[id]; ok {
		if label, certain := wm.Test(eps); certain {
			s.hitEps.Add(1)
			return label, nil
		}
		if f, ok := s.buffer[id]; ok {
			s.hitBuffer.Add(1)
			return cur.Predict(f), nil
		}
	}
	s.hitDisk.Add(1)
	return s.diskStripeStore.Label(id, wm, cur, eager)
}

// Hits reports how many Single Entity reads the ε-map filter, the
// buffer, and disk answered, respectively.
func (s *hybridStripeStore) Hits() (epsMap, buffer, disk int64) {
	return s.hitEps.Load(), s.hitBuffer.Load(), s.hitDisk.Load()
}

// MemoryFootprint reports the summaries' sizes for Stats (Figure
// 6(A)): the ε-map costs (key + sizeof(double)) per entity and the
// buffer additionally stores feature vectors.
func (s *hybridStripeStore) MemoryFootprint() (epsMapBytes, bufferBytes int64) {
	epsMapBytes = int64(len(s.epsMap)) * (8 + 8)
	for _, f := range s.buffer {
		bufferBytes += int64(8 + f.EncodedSize())
	}
	return epsMapBytes, bufferBytes
}

// bufferEntry orders buffered candidates by distance from the
// boundary (larger |eps| = worse candidate, evicted first).
type bufferEntry struct {
	id  int64
	abs float64
	f   vector.Vector
}

type bufferHeap []bufferEntry

func (h bufferHeap) Len() int           { return len(h) }
func (h bufferHeap) Less(i, j int) bool { return h[i].abs > h[j].abs } // max-heap on |eps|
func (h bufferHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bufferHeap) Push(x any)        { *h = append(*h, x.(bufferEntry)) }
func (h *bufferHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

var (
	_ StripeStore = (*diskStripeStore)(nil)
	_ StripeStore = (*hybridStripeStore)(nil)
)
