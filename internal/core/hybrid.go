package core

import (
	"container/heap"
	"math"
	"sync/atomic"

	"hazy/internal/learn"
	"hazy/internal/storage"
	"hazy/internal/vector"
)

// HybridView is the hybrid architecture of §3.5.2: the full on-disk
// Hazy structure, plus two in-memory summaries —
//
//   - the ε-map h(s): id → eps, which is tiny (no feature vectors;
//     (k + sizeof(double)) per entity) and answers every Single
//     Entity read outside the water band without touching disk, and
//   - a buffer of at most B entities nearest the decision boundary
//     (those most likely to change label), which absorbs most of the
//     remaining reads.
//
// The lookup procedure is App. B.4 Figure 8: ε-map + watermarks
// first, then the buffer, then disk.
type HybridView struct {
	*DiskView
	bufferCap int
	epsMap    map[int64]float64
	buffer    map[int64]vector.Vector

	// Hit counters are atomic: Label is a read and runs under a read
	// lock with other readers (App. C.2), so its bookkeeping must not
	// introduce a write-write race.
	hitEps, hitBuffer, hitDisk atomic.Int64
}

// NewHybridView builds a hybrid view. The buffer holds at most
// opts.BufferFrac × len(entities) entities (paper default 1%).
func NewHybridView(dir string, poolPages int, entities []Entity, opts Options) (*HybridView, error) {
	opts = opts.withDefaults()
	dv, err := NewDiskView(dir, poolPages, entities, HazyStrategy, opts)
	if err != nil {
		return nil, err
	}
	h := &HybridView{
		DiskView:  dv,
		bufferCap: int(opts.BufferFrac * float64(len(entities))),
	}
	if h.bufferCap < 1 {
		h.bufferCap = 1
	}
	if err := h.rebuildMemory(); err != nil {
		return nil, err
	}
	return h, nil
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

// rebuildMemory reconstructs the ε-map and the boundary buffer from
// the (freshly clustered) disk table.
func (h *HybridView) rebuildMemory() error {
	h.epsMap = make(map[int64]float64, h.dt.Len())
	bh := make(bufferHeap, 0, h.bufferCap+1)
	err := h.dt.ScanAll(func(_ storage.RID, id int64, eps float64, _ int, f vector.Vector) error {
		h.epsMap[id] = eps
		heap.Push(&bh, bufferEntry{id: id, abs: math.Abs(eps), f: f})
		if len(bh) > h.bufferCap {
			heap.Pop(&bh)
		}
		return nil
	})
	if err != nil {
		return err
	}
	h.buffer = make(map[int64]vector.Vector, len(bh))
	for _, e := range bh {
		h.buffer[e.id] = e.f
	}
	return nil
}

// Update maintains the disk structure; if it triggered a
// reorganization, the in-memory summaries are rebuilt against the new
// stored model (that rebuild is part of the hybrid's reorganization
// cost, which is why the hybrid "has a more expensive resort",
// App. C.2).
func (h *HybridView) Update(f vector.Vector, label int) error {
	before := 0
	if h.sk != nil {
		before = h.sk.Reorgs()
	}
	if err := h.DiskView.Update(f, label); err != nil {
		return err
	}
	if h.sk != nil && h.sk.Reorgs() != before {
		return h.rebuildMemory()
	}
	return nil
}

// Members lists the positive ids. In lazy mode the underlying All
// Members read accrues Skiing waste and can trigger a reorganization
// (§3.4); like Update, the hybrid must then rebuild its ε-map and
// buffer against the new stored model, or Label would keep testing
// stale eps values against the reset watermarks. Lazy Members
// therefore mutates maintenance state and must be serialized against
// writers, same as the other layouts.
func (h *HybridView) Members() ([]int64, error) {
	var out []int64
	err := h.membersRebuilding(func(id int64) { out = append(out, id) })
	return out, err
}

// CountMembers counts the positive ids (same reorg discipline as
// Members).
func (h *HybridView) CountMembers() (int, error) {
	n := 0
	err := h.membersRebuilding(func(int64) { n++ })
	return n, err
}

// membersRebuilding drives the disk layer's All Members read and
// rebuilds the in-memory summaries if the read reorganized.
func (h *HybridView) membersRebuilding(fn func(id int64)) error {
	before := 0
	if h.sk != nil {
		before = h.sk.Reorgs()
	}
	if err := h.DiskView.members(fn); err != nil {
		return err
	}
	if h.sk != nil && h.sk.Reorgs() != before {
		return h.rebuildMemory()
	}
	return nil
}

// Retrain rebuilds the model from scratch, reclusters disk, and
// refreshes the in-memory summaries.
func (h *HybridView) Retrain(examples []learn.Example) error {
	if err := h.DiskView.Retrain(examples); err != nil {
		return err
	}
	return h.rebuildMemory()
}

// Insert adds the entity to disk and to the ε-map (and to the buffer
// when there is room — new entities near the boundary are exactly the
// ones worth caching).
func (h *HybridView) Insert(e Entity) error {
	if err := h.DiskView.Insert(e); err != nil {
		return err
	}
	eps := h.wm.Eps(e.F)
	h.epsMap[e.ID] = eps
	if len(h.buffer) < h.bufferCap {
		h.buffer[e.ID] = e.F
	}
	return nil
}

// Label implements the App. B.4 lookup: watermark test on the ε-map,
// then the buffer, then disk.
func (h *HybridView) Label(id int64) (int, error) {
	eps, ok := h.epsMap[id]
	if !ok {
		h.hitDisk.Add(1)
		return h.DiskView.Label(id)
	}
	if label, certain := h.wm.Test(eps); certain {
		h.hitEps.Add(1)
		return label, nil
	}
	if f, ok := h.buffer[id]; ok {
		h.hitBuffer.Add(1)
		return h.trainer.Model().Predict(f), nil
	}
	h.hitDisk.Add(1)
	return h.DiskView.Label(id)
}

// Hits reports how many Single Entity reads were served by the ε-map
// filter, the buffer, and disk, respectively.
func (h *HybridView) Hits() (epsMap, buffer, disk int64) {
	return h.hitEps.Load(), h.hitBuffer.Load(), h.hitDisk.Load()
}

// Stats extends the disk stats with the hybrid memory footprint
// (Figure 6(A)): the ε-map costs (key + sizeof(double)) per entity
// and the buffer additionally stores feature vectors.
func (h *HybridView) Stats() Stats {
	s := h.DiskView.Stats()
	s.EpsMapBytes = int64(len(h.epsMap)) * (8 + 8)
	for _, f := range h.buffer {
		s.BufferBytes += int64(8 + f.EncodedSize())
	}
	return s
}

var (
	_ View = (*HybridView)(nil)
	_ View = (*DiskView)(nil)
	_ View = (*MemView)(nil)
)
