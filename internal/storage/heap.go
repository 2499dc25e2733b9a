package storage

import (
	"encoding/binary"
	"fmt"
)

// RID is a record identifier: page ordinal within a heap plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile stores variable-length records in slotted pages via a
// buffer pool. Appends go to the last page; there is no free-space
// map because Hazy's workload is append + in-place update + periodic
// full rebuild.
//
// Records larger than a page spill into overflow-page chains (the
// PostgreSQL-TOAST analog): the slot then holds a small pointer
// stub. Each stored record carries a one-byte flag distinguishing
// inline payloads from overflow stubs. Overflow pages freed by
// deletes and relocating updates are reclaimed at the next rebuild
// (Hazy reorganizes into a fresh generation file anyway).
type HeapFile struct {
	pool  *BufferPool
	pages []PageID // slotted heap pages in order; excludes overflow pages
}

// Stored-record flags.
const (
	flagInline   = 0
	flagOverflow = 1
)

// Overflow page layout: [0:4) next overflow PageID (InvalidPage ends
// the chain), [4:6) bytes used, data from 6.
const (
	ovflHeader = 6
	ovflData   = PageSize - ovflHeader
)

// overflow stub layout (after the flag byte): first chain page (4B),
// total payload length (4B).
const stubSize = 1 + 4 + 4

// MaxInlineRecord is the largest payload stored inline in a slotted
// page; anything larger goes to an overflow chain.
const MaxInlineRecord = MaxRecordSize - 1

// MaxHeapRecord bounds a single record's size (sanity limit).
const MaxHeapRecord = 64 << 20

// NewHeapFile creates an empty heap backed by pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool}
}

// NumPages returns the number of slotted pages in the heap.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// SetPages installs a page list recovered from a catalog manifest,
// re-attaching the heap to pages written in a previous session. Every
// page id must already be allocated in the backing pager: a manifest
// pointing past the end of a (possibly truncated) page file is
// reported here as a recovery error instead of surfacing later as a
// pager panic mid-scan.
func (h *HeapFile) SetPages(pages []PageID) error {
	n := h.pool.Pager().NumPages()
	for _, id := range pages {
		if id >= n {
			return fmt.Errorf("storage: recovered page id %d out of bounds (file has %d pages)", id, n)
		}
	}
	h.pages = pages
	return nil
}

// Pages returns the heap's slotted page ids in order (read-only).
func (h *HeapFile) Pages() []PageID { return h.pages }

// insertStored places an already-flagged stored record in a slotted
// page.
func (h *HeapFile) insertStored(stored []byte) (RID, error) {
	if n := len(h.pages); n > 0 {
		id := h.pages[n-1]
		buf, err := h.pool.Pin(id)
		if err != nil {
			return RID{}, err
		}
		sp := SlottedPage{buf}
		if slot, ok := sp.Insert(stored); ok {
			h.pool.Unpin(id, true)
			return RID{Page: id, Slot: uint16(slot)}, nil
		}
		h.pool.Unpin(id, false)
	}
	id, buf, err := h.pool.Allocate()
	if err != nil {
		return RID{}, err
	}
	InitSlotted(buf)
	sp := SlottedPage{buf}
	slot, ok := sp.Insert(stored)
	if !ok {
		h.pool.Unpin(id, true)
		return RID{}, fmt.Errorf("storage: stored record of %d bytes does not fit a fresh page", len(stored))
	}
	h.pool.Unpin(id, true)
	h.pages = append(h.pages, id)
	return RID{Page: id, Slot: uint16(slot)}, nil
}

// writeOverflow writes rec into a fresh overflow chain, returning the
// first page id.
func (h *HeapFile) writeOverflow(rec []byte) (PageID, error) {
	first := InvalidPage
	prev := InvalidPage
	for off := 0; off < len(rec) || first == InvalidPage; {
		id, buf, err := h.pool.Allocate()
		if err != nil {
			return InvalidPage, err
		}
		n := len(rec) - off
		if n > ovflData {
			n = ovflData
		}
		binary.LittleEndian.PutUint32(buf[0:4], uint32(InvalidPage))
		binary.LittleEndian.PutUint16(buf[4:6], uint16(n))
		copy(buf[ovflHeader:], rec[off:off+n])
		h.pool.Unpin(id, true)
		if first == InvalidPage {
			first = id
		} else {
			pbuf, err := h.pool.Pin(prev)
			if err != nil {
				return InvalidPage, err
			}
			binary.LittleEndian.PutUint32(pbuf[0:4], uint32(id))
			h.pool.Unpin(prev, true)
		}
		prev = id
		off += n
	}
	return first, nil
}

// readOverflow assembles the record ref names into a fresh slice.
func (h *HeapFile) readOverflow(ref overflowRef) ([]byte, error) {
	out := make([]byte, 0, ref.total)
	id := ref.first
	for id != InvalidPage {
		buf, err := h.pool.Pin(id)
		if err != nil {
			return nil, err
		}
		next := PageID(binary.LittleEndian.Uint32(buf[0:4]))
		n := int(binary.LittleEndian.Uint16(buf[4:6]))
		out = append(out, buf[ovflHeader:ovflHeader+n]...)
		h.pool.Unpin(id, false)
		id = next
	}
	if len(out) != ref.total {
		return nil, fmt.Errorf("storage: overflow chain has %d bytes, stub says %d", len(out), ref.total)
	}
	return out, nil
}

// Insert appends rec, returning its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxHeapRecord {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds limit %d", len(rec), MaxHeapRecord)
	}
	if len(rec) <= MaxInlineRecord {
		stored := make([]byte, 1+len(rec))
		stored[0] = flagInline
		copy(stored[1:], rec)
		return h.insertStored(stored)
	}
	first, err := h.writeOverflow(rec)
	if err != nil {
		return RID{}, err
	}
	var stub [stubSize]byte
	stub[0] = flagOverflow
	binary.LittleEndian.PutUint32(stub[1:5], uint32(first))
	binary.LittleEndian.PutUint32(stub[5:9], uint32(len(rec)))
	return h.insertStored(stub[:])
}

// overflowRef names an overflow record: its chain's first page and
// the record's total length, as read from the slot's stub.
type overflowRef struct {
	first PageID
	total int
}

// parseStored interprets a slot's bytes: an inline record yields its
// payload, aliasing stored; an overflow stub yields the chain it
// names, which stays valid after the slot's page is unpinned.
func parseStored(stored []byte) (payload []byte, ref overflowRef, inline bool, err error) {
	if len(stored) < 1 {
		return nil, ref, false, fmt.Errorf("storage: empty stored record")
	}
	switch stored[0] {
	case flagInline:
		return stored[1:], ref, true, nil
	case flagOverflow:
		if len(stored) != stubSize {
			return nil, ref, false, fmt.Errorf("storage: bad overflow stub of %d bytes", len(stored))
		}
		ref.first = PageID(binary.LittleEndian.Uint32(stored[1:5]))
		ref.total = int(binary.LittleEndian.Uint32(stored[5:9]))
		return nil, ref, false, nil
	default:
		return nil, ref, false, fmt.Errorf("storage: unknown record flag %d", stored[0])
	}
}

// lookup pins rid's page and parses its slot. An inline record's
// payload aliases the page, which stays pinned for the caller to
// unpin; an overflow record or an error leaves nothing pinned.
func (h *HeapFile) lookup(rid RID) (payload []byte, ref overflowRef, inline bool, err error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, ref, false, err
	}
	stored, ok := SlottedPage{buf}.Get(int(rid.Slot))
	if !ok {
		h.pool.Unpin(rid.Page, false)
		return nil, ref, false, fmt.Errorf("storage: no record at %v", rid)
	}
	payload, ref, inline, err = parseStored(stored)
	if err != nil || !inline {
		h.pool.Unpin(rid.Page, false)
	}
	return payload, ref, inline, err
}

// Get copies the record at rid into a fresh slice: one copy straight
// off the pinned page for an inline record, the assembled chain for
// an overflow record.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	payload, ref, inline, err := h.lookup(rid)
	if err != nil {
		return nil, err
	}
	if !inline {
		return h.readOverflow(ref)
	}
	rec := append([]byte(nil), payload...)
	h.pool.Unpin(rid.Page, false)
	return rec, nil
}

// View calls fn with the record bytes at rid. An inline record's
// bytes alias the pinned page, which stays pinned until fn returns;
// an overflow record is assembled into a fresh slice first. Either
// way fn must not retain the slice, nor write to it.
func (h *HeapFile) View(rid RID, fn func(rec []byte) error) error {
	payload, ref, inline, err := h.lookup(rid)
	if err != nil {
		return err
	}
	if !inline {
		rec, err := h.readOverflow(ref)
		if err != nil {
			return err
		}
		return fn(rec)
	}
	defer h.pool.Unpin(rid.Page, false)
	return fn(payload)
}

// PageRun reads a sequence of records while holding at most one heap
// page pinned: consecutive records on the same page share one pin,
// so a scan over RIDs that cluster by page — an eps-band sweep over a
// reorganized table — pays one pool round trip per page, not per
// record. Inline payloads alias the pinned page and may be modified
// in place (the paper's in-place class update, App. B.1); MarkDirty
// then schedules the page for write-back when the run moves off it.
// A run is single-goroutine and must be Closed.
type PageRun struct {
	h     *HeapFile
	page  PageID // pinned page, InvalidPage when none
	buf   []byte
	dirty bool
}

// Run opens a page run over h.
func (h *HeapFile) Run() *PageRun { return &PageRun{h: h, page: InvalidPage} }

// Record returns the payload at rid. For an inline record (inline
// true) the payload aliases the pinned page: it is valid until the
// next Record or Close, and bytes written into it reach the file once
// MarkDirty is called. An overflow record returns inline false and no
// payload, and the run releases its pin so the caller can read the
// record with Get and write it with Patch.
func (r *PageRun) Record(rid RID) (payload []byte, inline bool, err error) {
	if rid.Page != r.page {
		r.release()
		buf, err := r.h.pool.Pin(rid.Page)
		if err != nil {
			return nil, false, err
		}
		r.page, r.buf = rid.Page, buf
	}
	stored, ok := SlottedPage{r.buf}.Get(int(rid.Slot))
	if !ok {
		return nil, false, fmt.Errorf("storage: no record at %v", rid)
	}
	payload, _, inline, err = parseStored(stored)
	if err != nil || !inline {
		r.release()
	}
	return payload, inline, err
}

// MarkDirty records that the caller changed bytes of the current
// page; a run that only reads never dirties a page.
func (r *PageRun) MarkDirty() { r.dirty = true }

// Close releases the run's pin. It is idempotent.
func (r *PageRun) Close() { r.release() }

func (r *PageRun) release() {
	if r.page != InvalidPage {
		r.h.pool.Unpin(r.page, r.dirty)
		r.page, r.buf, r.dirty = InvalidPage, nil, false
	}
}

// Update overwrites the record at rid. If the new record does not fit
// in place the record is deleted and re-inserted, and the returned
// RID reflects its new home. Overflow chains are never patched in
// place; they are rewritten.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return RID{}, err
	}
	sp := SlottedPage{buf}
	stored, ok := sp.Get(int(rid.Slot))
	if !ok {
		h.pool.Unpin(rid.Page, false)
		return RID{}, fmt.Errorf("storage: update of missing record %v", rid)
	}
	if stored[0] == flagInline && len(rec) <= MaxInlineRecord {
		newStored := make([]byte, 1+len(rec))
		newStored[0] = flagInline
		copy(newStored[1:], rec)
		if sp.UpdateInPlace(int(rid.Slot), newStored) {
			h.pool.Unpin(rid.Page, true)
			return rid, nil
		}
	}
	if err := sp.Delete(int(rid.Slot)); err != nil {
		h.pool.Unpin(rid.Page, false)
		return RID{}, err
	}
	sp.Compact()
	h.pool.Unpin(rid.Page, true)
	return h.Insert(rec)
}

// Patch overwrites len(data) bytes at offset off within the record at
// rid, in place. The write must lie within the record's current
// extent. Hazy uses this for its in-place class/eps column updates
// (the paper adds a PostgreSQL UDF to update records "in place
// without generating a copy", App. B.1). Overflow records are patched
// by walking their chain.
func (h *HeapFile) Patch(rid RID, off int, data []byte) error {
	rec, ref, inline, err := h.lookup(rid)
	if err != nil {
		return fmt.Errorf("patch: %w", err)
	}
	if inline {
		if off < 0 || off+len(data) > len(rec) {
			h.pool.Unpin(rid.Page, false)
			return fmt.Errorf("storage: patch [%d,%d) outside record of %d bytes", off, off+len(data), len(rec))
		}
		copy(rec[off:], data)
		h.pool.Unpin(rid.Page, true)
		return nil
	}
	// Overflow: walk the chain to the offset.
	if off < 0 || off+len(data) > ref.total {
		return fmt.Errorf("storage: patch [%d,%d) outside record of %d bytes", off, off+len(data), ref.total)
	}
	id := ref.first
	pos := 0
	remaining := data
	for id != InvalidPage && len(remaining) > 0 {
		obuf, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint32(obuf[0:4]))
		n := int(binary.LittleEndian.Uint16(obuf[4:6]))
		pageEnd := pos + n
		if off < pageEnd {
			start := off - pos
			if start < 0 {
				start = 0
			}
			cnt := n - start
			if cnt > len(remaining) {
				cnt = len(remaining)
			}
			copy(obuf[ovflHeader+start:ovflHeader+start+cnt], remaining[:cnt])
			remaining = remaining[cnt:]
			off += cnt
			h.pool.Unpin(id, true)
		} else {
			h.pool.Unpin(id, false)
		}
		pos = pageEnd
		id = next
	}
	if len(remaining) > 0 {
		return fmt.Errorf("storage: overflow chain ended %d bytes early during patch", len(remaining))
	}
	return nil
}

// Delete removes the record at rid. An overflow chain's pages are
// orphaned until the next rebuild.
func (h *HeapFile) Delete(rid RID) error {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(rid.Page, true)
	return SlottedPage{buf}.Delete(int(rid.Slot))
}

// Scan iterates every live record in heap order, invoking fn with the
// record's RID and bytes (valid only during the call). Returning a
// non-nil error from fn stops the scan and is returned.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	for _, id := range h.pages {
		buf, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		sp := SlottedPage{buf}
		n := sp.NumSlots()
		for s := 0; s < n; s++ {
			stored, ok := sp.Get(s)
			if !ok {
				continue
			}
			rec, ref, inline, err := parseStored(stored)
			if err == nil && !inline {
				// Assembling an overflow record pins other pages.
				rec, err = h.readOverflow(ref)
			}
			if err != nil {
				h.pool.Unpin(id, false)
				return err
			}
			if err := fn(RID{Page: id, Slot: uint16(s)}, rec); err != nil {
				h.pool.Unpin(id, false)
				return err
			}
		}
		h.pool.Unpin(id, false)
	}
	return nil
}

// Count returns the number of live records (by scanning).
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, []byte) error { n++; return nil })
	return n, err
}

// Reset discards all pages, leaving an empty heap. Page storage is
// not returned to the pager (Hazy rebuilds into fresh pages; the
// bench harness recreates files per run).
func (h *HeapFile) Reset() { h.pages = nil }

// BulkLoad replaces the heap contents with records delivered by next,
// which returns nil at end of stream. Records are packed tightly in
// fresh pages in arrival order — this is the physical "cluster by
// eps" step of Hazy's reorganization.
//
// Unlike a loop over Insert, the load is page-batched: the tail page
// stays pinned while consecutive records fill it (one pin/unpin pair
// per page instead of per record) and the flag-byte framing reuses
// one scratch buffer across the stream. At reorganization scale —
// millions of records per rebuild — the per-record pool round trips
// dominate, so the batched path is what makes striped on-disk
// rebuilds IO-shaped rather than latch-shaped.
func (h *HeapFile) BulkLoad(next func() ([]byte, error)) ([]RID, error) {
	h.Reset()
	var (
		rids    []RID
		tail    = InvalidPage // pinned tail page, if any
		tbuf    []byte
		scratch []byte
	)
	unpinTail := func() {
		if tail != InvalidPage {
			h.pool.Unpin(tail, true)
			tail = InvalidPage
		}
	}
	for {
		rec, err := next()
		if err != nil {
			unpinTail()
			return nil, err
		}
		if rec == nil {
			unpinTail()
			return rids, nil
		}
		if len(rec) > MaxHeapRecord {
			unpinTail()
			return nil, fmt.Errorf("storage: record of %d bytes exceeds limit %d", len(rec), MaxHeapRecord)
		}
		var stored []byte
		if len(rec) <= MaxInlineRecord {
			if cap(scratch) < 1+len(rec) {
				scratch = make([]byte, 1+len(rec))
			}
			stored = scratch[:1+len(rec)]
			stored[0] = flagInline
			copy(stored[1:], rec)
		} else {
			// Overflow chains allocate their own pages; release the
			// tail first so a tiny pool cannot deadlock on pins.
			unpinTail()
			first, err := h.writeOverflow(rec)
			if err != nil {
				return nil, err
			}
			if cap(scratch) < stubSize {
				scratch = make([]byte, stubSize)
			}
			stored = scratch[:stubSize]
			stored[0] = flagOverflow
			binary.LittleEndian.PutUint32(stored[1:5], uint32(first))
			binary.LittleEndian.PutUint32(stored[5:9], uint32(len(rec)))
		}
		if tail == InvalidPage && len(h.pages) > 0 {
			// Re-pin the tail after an overflow spill released it.
			id := h.pages[len(h.pages)-1]
			buf, err := h.pool.Pin(id)
			if err != nil {
				return nil, err
			}
			tail, tbuf = id, buf
		}
		if tail != InvalidPage {
			if slot, ok := (SlottedPage{tbuf}).Insert(stored); ok {
				rids = append(rids, RID{Page: tail, Slot: uint16(slot)})
				continue
			}
			unpinTail() // full; move on to a fresh page
		}
		id, buf, err := h.pool.Allocate()
		if err != nil {
			return nil, err
		}
		InitSlotted(buf)
		slot, ok := (SlottedPage{buf}).Insert(stored)
		if !ok {
			h.pool.Unpin(id, true)
			return nil, fmt.Errorf("storage: stored record of %d bytes does not fit a fresh page", len(stored))
		}
		h.pages = append(h.pages, id)
		tail, tbuf = id, buf
		rids = append(rids, RID{Page: id, Slot: uint16(slot)})
	}
}
