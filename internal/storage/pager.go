// Package storage implements the on-disk substrate Hazy's paper gets
// from PostgreSQL: a page file, an LRU buffer pool with pin/unpin
// semantics, slotted pages, and heap files of variable-length records.
//
// Every disk access flows through the buffer pool, which keeps I/O
// statistics so benchmarks can report physical reads/writes alongside
// wall-clock time.
//
// A heap record is read in one of three ways. Get copies it into a
// fresh slice the caller owns. View lends it to a callback: an inline
// record's bytes alias the pinned page until the callback returns, so
// a point read that decodes what it needs copies nothing. A PageRun
// walks a sequence of records holding one page pinned per run of
// records that share it, and lets the caller rewrite an inline
// record's bytes in place under that pin — the copy-free class update
// of Hazy's on-disk band sweep. Overflow records are always assembled
// into a fresh slice.
package storage

import (
	"fmt"
	"sync"
)

// PageSize is the size of every on-disk page in bytes (PostgreSQL's
// default, which the paper's prototype ran on).
const PageSize = 8192

// PageID identifies a page within a Pager by ordinal position.
type PageID uint32

// InvalidPage is a sentinel PageID that never refers to a real page.
const InvalidPage = PageID(^uint32(0))

// Pager provides page-granular access to a single file. It is safe
// for concurrent use.
type Pager struct {
	mu       sync.Mutex
	f        File
	numPages PageID

	// Physical I/O counters (monotonically increasing).
	readCount  int64
	writeCount int64
}

// OpenPager opens (creating if necessary) the page file at path on
// the real filesystem.
func OpenPager(path string) (*Pager, error) {
	return OpenPagerVFS(OS, path)
}

// OpenPagerVFS opens the page file at path through vfs, letting test
// harnesses interpose fault injection under every page write.
func OpenPagerVFS(vfs VFS, path string) (*Pager, error) {
	f, err := vfs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open pager: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat pager: %w", err)
	}
	if size%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d not a multiple of page size", path, size)
	}
	return &Pager{f: f, numPages: PageID(size / PageSize)}, nil
}

// NumPages returns the number of allocated pages.
func (p *Pager) NumPages() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

// Allocate extends the file by one zeroed page and returns its id.
func (p *Pager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.numPages
	var zero [PageSize]byte
	if _, err := p.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	p.numPages++
	p.writeCount++
	return id, nil
}

// ReadPage reads page id into buf (which must be PageSize bytes).
func (p *Pager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.numPages {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, p.numPages)
	}
	if _, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	p.readCount++
	return nil
}

// WritePage writes buf (PageSize bytes) to page id.
func (p *Pager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id >= p.numPages {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, p.numPages)
	}
	if _, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	p.writeCount++
	return nil
}

// Truncate discards all pages at or beyond n, shrinking the file.
func (p *Pager) Truncate(n PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.f.Truncate(int64(n) * PageSize); err != nil {
		return fmt.Errorf("storage: truncate to %d pages: %w", n, err)
	}
	p.numPages = n
	return nil
}

// Sync flushes the file to stable storage.
func (p *Pager) Sync() error { return p.f.Sync() }

// Close closes the underlying file.
func (p *Pager) Close() error { return p.f.Close() }

// IOStats is a snapshot of physical I/O counters.
type IOStats struct {
	PhysicalReads  int64
	PhysicalWrites int64
}

// Stats returns a snapshot of the pager's physical I/O counters.
func (p *Pager) Stats() IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return IOStats{PhysicalReads: p.readCount, PhysicalWrites: p.writeCount}
}
