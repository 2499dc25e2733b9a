package storage

import (
	"bytes"
	"testing"
)

// fillHeap inserts n small records, returning their RIDs; with 64-byte
// records a page holds ~100, so n in the hundreds spans several pages.
func fillHeap(t *testing.T, h *HeapFile, n int) []RID {
	t.Helper()
	rids := make([]RID, n)
	for i := range rids {
		rec := bytes.Repeat([]byte{byte(i)}, 64)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return rids
}

func pins(bp *BufferPool) int64 {
	st := bp.Stats()
	return st.Hits + st.Misses
}

// holdPin pins page id for the rest of the test. Allocation pins hold
// one so that a read's unpin never drops the page to zero pins: that
// step allocates an LRU element in the pool, a cost of the pool (one
// per page release), not of the read being measured.
func holdPin(t *testing.T, bp *BufferPool, id PageID) {
	t.Helper()
	if _, err := bp.Pin(id); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bp.Unpin(id, false) })
}

// TestHeapGetOneCopy pins Get at one allocation for an inline record
// and checks that the copy it returns is the caller's: neither a later
// in-place patch nor the page's eviction and reuse changes it.
func TestHeapGetOneCopy(t *testing.T) {
	bp := newPool(t, 3)
	h := NewHeapFile(bp)
	rids := fillHeap(t, h, 500)
	rid := rids[0]
	t.Run("allocs", func(t *testing.T) {
		holdPin(t, bp, rid.Page)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := h.Get(rid); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("inline Get allocates %v times, want 1", allocs)
		}
	})
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0}, 64)
	if err := h.Patch(rid, 0, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	// Cycle every page through the small pool so rid's frame is
	// evicted and its memory reused for other pages.
	for _, r := range rids[100:] {
		if _, err := h.Get(r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get's copy changed under it: % x", got[:4])
	}
	again, err := h.Get(rid)
	if err != nil || again[0] != 0xFF {
		t.Fatalf("patch lost: % x %v", again[:2], err)
	}
}

// TestHeapViewAliasesPage checks View's zero-copy contract: an inline
// record is handed over on the pinned page, without an allocation,
// and the pin is released when fn returns.
func TestHeapViewAliasesPage(t *testing.T) {
	bp := newPool(t, 4)
	h := NewHeapFile(bp)
	rids := fillHeap(t, h, 10)
	var n int
	view := func(rec []byte) error { n += len(rec); return nil }
	t.Run("allocs", func(t *testing.T) {
		holdPin(t, bp, rids[3].Page)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := h.View(rids[3], view); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("inline View allocates %v times, want 0", allocs)
		}
	})
	// Two views of the same record see the same bytes of the page.
	var first []byte
	h.View(rids[3], func(rec []byte) error { first = rec; return nil })
	h.View(rids[3], func(rec []byte) error {
		if &rec[0] != &first[0] {
			t.Fatal("View copied an inline record")
		}
		return nil
	})
	if err := bp.Invalidate(); err != nil {
		t.Fatalf("View left a page pinned: %v", err)
	}
}

// TestPageRunOnePinPerPage walks records in page order and checks that
// the run pays one pin per page, not per record, and that reading
// alone dirties nothing.
func TestPageRunOnePinPerPage(t *testing.T) {
	bp := newPool(t, 8)
	h := NewHeapFile(bp)
	rids := fillHeap(t, h, 500)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	writes := bp.Pager().Stats().PhysicalWrites
	before := pins(bp)
	run := h.Run()
	for i, rid := range rids {
		rec, inline, err := run.Record(rid)
		if err != nil || !inline {
			t.Fatalf("record %d: inline=%v %v", i, inline, err)
		}
		if rec[0] != byte(i) || len(rec) != 64 {
			t.Fatalf("record %d: got % x… (%d bytes)", i, rec[:2], len(rec))
		}
	}
	run.Close()
	run.Close() // idempotent
	if got, want := pins(bp)-before, int64(h.NumPages()); got != want {
		t.Fatalf("run pinned %d times over %d pages", got, want)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w := bp.Pager().Stats().PhysicalWrites; w != writes {
		t.Fatalf("a read-only run wrote %d pages", w-writes)
	}
}

// TestPageRunMarkDirtyReachesFile patches records in place through a
// run over a two-frame pool, so patched pages are evicted while the
// run moves on, and reads every record back through the file.
func TestPageRunMarkDirtyReachesFile(t *testing.T) {
	bp := newPool(t, 2)
	h := NewHeapFile(bp)
	rids := fillHeap(t, h, 500)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	run := h.Run()
	for i, rid := range rids {
		rec, _, err := run.Record(rid)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			rec[1] = 0xEE
			run.MarkDirty()
		}
	}
	run.Close()
	if err := bp.Invalidate(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		want := byte(i)
		if i%3 == 0 {
			want = 0xEE
		}
		if got[0] != byte(i) || got[1] != want {
			t.Fatalf("record %d: % x, want %02x %02x", i, got[:2], byte(i), want)
		}
	}
}

// TestPageRunOverflow checks that an overflow record is reported, not
// assembled, and that the run then holds no pin — the caller falls
// back to Get and Patch, which need the pool's frames.
func TestPageRunOverflow(t *testing.T) {
	bp := newPool(t, 4)
	h := NewHeapFile(bp)
	small, err := h.Insert([]byte("inline"))
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), MaxInlineRecord+1)
	bigRID, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	run := h.Run()
	defer run.Close()
	if rec, inline, err := run.Record(small); err != nil || !inline || string(rec) != "inline" {
		t.Fatalf("inline record: %q %v %v", rec, inline, err)
	}
	rec, inline, err := run.Record(bigRID)
	if err != nil || inline || rec != nil {
		t.Fatalf("overflow record: %d bytes inline=%v %v", len(rec), inline, err)
	}
	if err := bp.Invalidate(); err != nil {
		t.Fatalf("run kept a pin across an overflow record: %v", err)
	}
	if _, _, err := run.Record(RID{Page: small.Page, Slot: 99}); err == nil {
		t.Fatal("missing slot accepted")
	}
	if got, err := h.Get(bigRID); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("overflow Get: %d bytes %v", len(got), err)
	}
}
