// Package wal is a record-oriented write-ahead log: the durability
// substrate beneath the relation catalog. Mutations append opaque
// payloads, each framed with a length and a CRC-32C, into
// fixed-capacity segment files that rotate as they fill. Recovery
// replays the tail of the log past the last checkpoint; a torn tail —
// a record cut mid-frame by a crash, or one whose checksum no longer
// matches — cleanly ends the replay, so the database always comes
// back as a prefix of the logged history and a damaged record is
// never mis-replayed.
//
// Commit is a group-commit barrier: concurrent committers coalesce
// onto one fsync, and a caller returns as soon as some fsync has
// covered its records. Batch writers (the maintenance engine) append
// a whole batch and commit once, paying one fsync per batch rather
// than per row.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hazy/internal/obs"
	"hazy/internal/storage"
)

// SyncMode selects when commits reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs on every Commit (group-coalesced): an
	// acknowledged write survives power loss.
	SyncAlways SyncMode = iota
	// SyncOff never fsyncs: appends still reach the OS immediately,
	// so acknowledged writes survive a process crash cleanly. An OS
	// crash or power loss can lose the unsynced tail — and, because
	// this mode also skips the page-image journaling that orders data
	// pages behind the log, pages written back between checkpoints
	// may survive records that did not, so only process-crash
	// consistency is promised.
	SyncOff
)

// ParseSyncMode maps the -fsync flag spellings to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "always", "on", "true":
		return SyncAlways, nil
	case "off", "no", "false":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync mode %q (want always|off)", s)
}

func (m SyncMode) String() string {
	if m == SyncOff {
		return "off"
	}
	return "always"
}

// Segment-file layout: a 16-byte header (magic, segment number,
// reserved), then records back to back. Each record is
//
//	[4B payload length LE][4B CRC-32C LE][payload]
//
// with the CRC covering the length bytes plus the payload, so a
// corrupted length is caught as reliably as a corrupted body.
const (
	headerSize  = 16
	frameHeader = 8
	// MaxRecord bounds one payload (sanity limit well above any
	// tuple the heap accepts).
	MaxRecord = 128 << 20
)

var (
	magic    = [8]byte{'H', 'A', 'Z', 'Y', 'W', 'A', 'L', '1'}
	castTab  = crc32.MakeTable(crc32.Castagnoli)
	segGlob  = "wal-"
	segSufix = ".seg"
)

func segName(n uint32) string { return fmt.Sprintf("wal-%08d.seg", n) }

func parseSegName(name string) (uint32, bool) {
	if !strings.HasPrefix(name, segGlob) || !strings.HasSuffix(name, segSufix) {
		return 0, false
	}
	var n uint32
	if _, err := fmt.Sscanf(name, "wal-%08d.seg", &n); err != nil {
		return 0, false
	}
	return n, true
}

// Pos addresses a byte position in the log: a segment number and an
// offset within that segment file. Positions order lexicographically.
type Pos struct {
	Seg uint32 `json:"seg"`
	Off int64  `json:"off"`
}

// Before reports whether p precedes q in the log.
func (p Pos) Before(q Pos) bool {
	return p.Seg < q.Seg || (p.Seg == q.Seg && p.Off < q.Off)
}

// EncodePosFrame frames payload behind a position:
// [4B seg][8B off][payload], little-endian. A primary ships each WAL
// record in this frame with the position a replica resumes from, and
// the replica journals it the same way.
func EncodePosFrame(pos Pos, payload []byte) []byte {
	buf := make([]byte, 12+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], pos.Seg)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(pos.Off))
	copy(buf[12:], payload)
	return buf
}

// DecodePosFrame splits an EncodePosFrame body; the payload aliases
// body.
func DecodePosFrame(body []byte) (Pos, []byte, error) {
	if len(body) < 12 {
		return Pos{}, nil, fmt.Errorf("wal: position frame of %d bytes", len(body))
	}
	pos := Pos{
		Seg: binary.LittleEndian.Uint32(body[0:4]),
		Off: int64(binary.LittleEndian.Uint64(body[4:12])),
	}
	return pos, body[12:], nil
}

// Options configures a Log.
type Options struct {
	// SegmentBytes caps a segment file before rotation (default
	// 4 MiB). A single oversized record may exceed it.
	SegmentBytes int64
	// Mode is the fsync policy (default SyncAlways).
	Mode SyncMode
	// VFS is the file layer (default the real filesystem).
	VFS storage.VFS
	// Metrics, when non-nil, registers the log's collectors (fsync
	// latency, group-commit cohort size, rotations, appended bytes) on
	// the shared registry. Nil leaves them unregistered.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.VFS == nil {
		o.VFS = storage.OS
	}
	return o
}

// Log is an append-only, segment-rotating record log. Append and
// Commit are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	f    storage.File // current (last) segment
	seg  uint32       // its number
	off  int64        // next write offset within it
	segs []uint32     // live segment numbers, ascending (last == seg)

	appended int64 // monotonic bytes appended across all segments
	synced   int64 // appended watermark covered by an fsync
	syncing  bool  // one committer is inside fsync
	waiters  int   // committers waiting on the sync watermark
	met      walMetrics

	// committed is the position one past the last record the mode
	// promises durable — what followers (log shipping) may read. In
	// SyncOff it tracks every append; in SyncAlways it advances only
	// under a covering fsync, so a replica never sees a record the
	// primary could lose. notify is closed and replaced each time
	// committed advances (or the log closes), waking followers.
	committed Pos
	notify    chan struct{}

	rotated atomic.Bool // set on rotation, taken by TakeRotated
	closed  bool
	// failed poisons the log after an fsync failure: on Linux the
	// kernel may drop the dirty pages and clear the error once
	// reported, so a retried fsync's "success" would falsely mark
	// lost records durable (the fsyncgate failure mode). Once set,
	// every append and commit refuses; recovery is reopening the
	// directory, which replays only what actually reached disk.
	failed error
}

// Open attaches to (or creates) the log in dir. The last segment's
// tail is validated record by record; anything past the last intact
// record — a torn frame from a crash — is discarded, so new appends
// extend the valid prefix.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.VFS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	names, err := opts.VFS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []uint32
	for _, name := range names {
		if n, ok := parseSegName(name); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	l.notify = make(chan struct{})
	l.met.init(opts.Metrics)
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		l.segs = []uint32{1}
		l.committed = Pos{Seg: l.seg, Off: l.off}
		return l, nil
	}
	l.segs = segs
	l.seg = segs[len(segs)-1]
	f, err := opts.VFS.OpenFile(filepath.Join(dir, segName(l.seg)))
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %d: %w", l.seg, err)
	}
	end, err := validEnd(f, l.seg)
	if err != nil {
		// A crash during segment creation (or a truncation below the
		// header) can leave the TAIL segment with a torn header; it
		// held no intact records, so reinitialize it rather than
		// refusing to open. Earlier segments are never forgiven this
		// way — Replay still errors on them.
		var hdr [headerSize]byte
		copy(hdr[:8], magic[:])
		binary.LittleEndian.PutUint32(hdr[8:12], l.seg)
		if _, werr := f.WriteAt(hdr[:], 0); werr != nil {
			f.Close()
			return nil, fmt.Errorf("wal: reinitialize torn tail segment %d: %w", l.seg, werr)
		}
		end = headerSize
	}
	// Drop the torn tail so stale bytes can never shadow a future
	// record boundary.
	if size, serr := f.Size(); serr == nil && size > end {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of segment %d: %w", l.seg, err)
		}
	}
	l.f = f
	l.off = end
	// Everything that survived to disk is the recoverable prefix, so it
	// is also the shippable prefix.
	l.committed = Pos{Seg: l.seg, Off: l.off}
	return l, nil
}

// advanceCommitted raises the committed watermark to p and wakes
// followers. Callers hold l.mu; p must be a record boundary.
func (l *Log) advanceCommitted(p Pos) {
	if l.committed.Before(p) {
		l.committed = p
		close(l.notify)
		l.notify = make(chan struct{})
	}
}

// createSegment opens a fresh segment file and writes its header.
// Callers hold l.mu (or have exclusive access during Open).
func (l *Log) createSegment(n uint32) error {
	f, err := l.opts.VFS.OpenFile(filepath.Join(l.dir, segName(n)))
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", n, err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], n)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment %d header: %w", n, err)
	}
	if l.opts.Mode == SyncAlways {
		// Make the directory entry durable: without this, power loss
		// after rotation could drop the whole new segment — and every
		// acknowledged commit inside it — without any replay error.
		if err := l.opts.VFS.SyncDir(l.dir); err != nil {
			f.Close()
			return fmt.Errorf("wal: sync dir after creating segment %d: %w", n, err)
		}
	}
	l.f = f
	l.seg = n
	l.off = headerSize
	return nil
}

// checkHeader validates a segment file's header.
func checkHeader(f storage.File, seg uint32) error {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: segment %d header unreadable: %w", seg, err)
	}
	if [8]byte(hdr[:8]) != magic {
		return fmt.Errorf("wal: segment %d has bad magic", seg)
	}
	if got := binary.LittleEndian.Uint32(hdr[8:12]); got != seg {
		return fmt.Errorf("wal: segment file %d labeled %d inside", seg, got)
	}
	return nil
}

// readFrame reads and validates one record at off. It returns the
// payload and the offset just past the record, or ok=false when the
// bytes from off onward are not an intact record (EOF or torn tail).
func readFrame(f storage.File, size, off int64) (payload []byte, next int64, ok bool) {
	if off+frameHeader > size {
		return nil, off, false
	}
	var hdr [frameHeader]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, off, false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxRecord || off+frameHeader+n > size {
		return nil, off, false
	}
	payload = make([]byte, n)
	if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
		return nil, off, false
	}
	sum := crc32.Checksum(hdr[0:4], castTab)
	sum = crc32.Update(sum, castTab, payload)
	if sum != crc {
		return nil, off, false
	}
	return payload, off + frameHeader + n, true
}

// validEnd scans a segment from its header to the end of its last
// intact record.
func validEnd(f storage.File, seg uint32) (int64, error) {
	if err := checkHeader(f, seg); err != nil {
		return 0, err
	}
	size, err := f.Size()
	if err != nil {
		return 0, fmt.Errorf("wal: stat segment %d: %w", seg, err)
	}
	off := int64(headerSize)
	for {
		_, next, ok := readFrame(f, size, off)
		if !ok {
			return off, nil
		}
		off = next
	}
}

// Append frames payload and writes it to the current segment,
// rotating first when the segment is full. The record is in the OS
// after Append returns; Commit makes it durable. The returned Pos
// addresses the record's first byte.
func (l *Log) Append(payload []byte) (Pos, error) {
	if len(payload) > MaxRecord {
		return Pos{}, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Pos{}, fmt.Errorf("wal: closed")
	}
	if l.failed != nil {
		return Pos{}, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	frame := int64(frameHeader + len(payload))
	if l.off > headerSize && l.off+frame > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return Pos{}, err
		}
	}
	buf := make([]byte, frame)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	sum := crc32.Checksum(buf[0:4], castTab)
	sum = crc32.Update(sum, castTab, payload)
	binary.LittleEndian.PutUint32(buf[4:8], sum)
	copy(buf[frameHeader:], payload)
	pos := Pos{Seg: l.seg, Off: l.off}
	if _, err := l.f.WriteAt(buf, l.off); err != nil {
		return Pos{}, fmt.Errorf("wal: append: %w", err)
	}
	l.off += frame
	l.appended += frame
	l.met.appended.Add(uint64(frame))
	if l.opts.Mode == SyncOff {
		// SyncOff promises process-crash durability the moment the
		// write reaches the OS, so the record is shippable immediately.
		l.advanceCommitted(Pos{Seg: l.seg, Off: l.off})
	}
	return pos, nil
}

// rotateLocked syncs and closes the current segment and starts the
// next one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	// Wait out any committer fsyncing the outgoing file outside the
	// lock — closing it from under them would fail their fsync.
	for l.syncing {
		l.cond.Wait()
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	if l.opts.Mode == SyncAlways {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			l.failed = err
			return fmt.Errorf("wal: sync before rotate: %w", err)
		}
		l.met.fsyncDur.ObserveDuration(time.Since(start))
	}
	// Everything appended so far lives in the outgoing segment and is
	// now as durable as the mode promises.
	l.synced = l.appended
	l.advanceCommitted(Pos{Seg: l.seg, Off: l.off})
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", l.seg, err)
	}
	next := l.seg + 1
	if err := l.createSegment(next); err != nil {
		return err
	}
	l.segs = append(l.segs, next)
	l.rotated.Store(true)
	l.met.rotations.Inc()
	l.cond.Broadcast()
	return nil
}

// TakeRotated reports — and clears — whether a segment rotation has
// happened since the last call. The relation layer polls it after
// commits to trigger a checkpoint per rotation; exactly one of a set
// of concurrent committers wins the flag.
func (l *Log) TakeRotated() bool { return l.rotated.Swap(false) }

// MarkRotated re-arms the rotation flag — the taker calls it when the
// checkpoint it owed failed, so the next commit retries instead of
// letting the replayable tail grow until another whole segment fills.
func (l *Log) MarkRotated() { l.rotated.Store(true) }

// End returns the position one past the last appended record.
func (l *Log) End() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{Seg: l.seg, Off: l.off}
}

// CommittedEnd returns the position one past the last record the sync
// mode promises durable — the shippable prefix. Every record starting
// strictly before it is intact and committed.
func (l *Log) CommittedEnd() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// committedState returns the committed watermark, the channel closed
// at its next advance, and whether the log is closed — the follower's
// wait primitive.
func (l *Log) committedState() (Pos, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed, l.notify, l.closed
}

// retained reports whether segment n is still on disk (not pruned).
func (l *Log) retained(n uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		if s == n {
			return true
		}
	}
	return false
}

// Contains reports whether a follower may resume from pos: its
// segment is still retained (not pruned by Checkpoint) and pos does
// not run ahead of the committed prefix. A false answer means the
// follower must re-bootstrap from a checkpoint image.
func (l *Log) Contains(pos Pos) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 || pos.Seg < l.segs[0] {
		return false
	}
	return !l.committed.Before(pos)
}

// Commit makes every record appended before the call durable under
// the log's sync mode. Concurrent committers coalesce: one performs
// the fsync, the rest wait for a sync watermark covering them.
func (l *Log) Commit() error {
	if l.opts.Mode == SyncOff {
		// Appends already reached the OS (unbuffered WriteAt); there
		// is nothing more this mode promises.
		return nil
	}
	return l.Sync()
}

// Sync forces an fsync covering every append so far, regardless of
// mode — the write-back hook for data pages uses it so the WAL rule
// holds even when commits are relaxed.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.appended
	l.waiters++
	for {
		if l.synced >= target {
			l.waiters--
			l.mu.Unlock()
			return nil
		}
		if l.failed != nil {
			l.waiters--
			err := l.failed
			l.mu.Unlock()
			return fmt.Errorf("wal: log failed: %w", err)
		}
		if l.closed {
			l.waiters--
			l.mu.Unlock()
			return fmt.Errorf("wal: closed")
		}
		if !l.syncing {
			break
		}
		l.cond.Wait()
	}
	l.waiters--
	l.syncing = true
	f := l.f
	covered := l.appended // everything in the current file right now
	endAt := Pos{Seg: l.seg, Off: l.off}
	// Every current waiter's target is ≤ covered, so this fsync's
	// group-commit cohort is the syncer plus all of them.
	cohort := 1 + l.waiters
	l.mu.Unlock()

	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)

	l.mu.Lock()
	l.syncing = false
	if err == nil {
		l.met.fsyncDur.ObserveDuration(elapsed)
		l.met.cohort.Observe(uint64(cohort))
		if covered > l.synced {
			l.synced = covered
		}
		l.advanceCommitted(endAt)
	} else if l.failed == nil {
		// Poison: the kernel may have dropped the dirty pages, so a
		// retry's success would lie about durability.
		l.failed = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Checkpoint prunes segments wholly before pos: after the caller has
// durably recorded pos as its recovery start, the bytes below it are
// dead. The current segment is never removed.
func (l *Log) Checkpoint(pos Pos) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segs[:0]
	var firstErr error
	for _, n := range l.segs {
		if n < pos.Seg && n != l.seg {
			if err := l.opts.VFS.Remove(filepath.Join(l.dir, segName(n))); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: prune segment %d: %w", n, err)
			}
			continue
		}
		keep = append(keep, n)
	}
	l.segs = keep
	return firstErr
}

// Replay streams every intact record from pos to the end of the log,
// in order. A torn or corrupt record in the LAST segment ends the
// replay cleanly (the crash-truncated tail); the same damage in an
// earlier segment is an error, because the records after it cannot be
// trusted to form a prefix. A pos past the end of the log replays
// nothing.
func (l *Log) Replay(pos Pos, fn func(p Pos, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]uint32(nil), l.segs...)
	l.mu.Unlock()
	for i, seg := range segs {
		if seg < pos.Seg {
			continue
		}
		last := i == len(segs)-1
		if err := l.replaySegment(seg, pos, last, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(seg uint32, pos Pos, last bool, fn func(Pos, []byte) error) error {
	f, err := l.opts.VFS.OpenFile(filepath.Join(l.dir, segName(seg)))
	if err != nil {
		return fmt.Errorf("wal: open segment %d for replay: %w", seg, err)
	}
	defer f.Close()
	if err := checkHeader(f, seg); err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("wal: stat segment %d: %w", seg, err)
	}
	off := int64(headerSize)
	if seg == pos.Seg && pos.Off > off {
		off = pos.Off
	}
	for off < size {
		payload, next, ok := readFrame(f, size, off)
		if !ok {
			if last {
				return nil // torn tail: the prefix ends here
			}
			return fmt.Errorf("wal: corrupt record at segment %d offset %d (not the log tail)", seg, off)
		}
		if err := fn(Pos{Seg: seg, Off: off}, payload); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// Close syncs (per mode) and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	// Wait out any committer fsyncing outside the lock — closing the
	// file from under them would fail an fsync whose records this
	// Close is about to make durable anyway.
	for l.syncing {
		l.cond.Wait()
	}
	l.closed = true
	var err error
	if l.opts.Mode == SyncAlways {
		err = l.f.Sync()
		if err == nil {
			l.synced = l.appended
			l.advanceCommitted(Pos{Seg: l.seg, Off: l.off})
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.cond.Broadcast()
	// Wake blocked followers so they observe the close instead of
	// sleeping on a channel that will never be closed again.
	close(l.notify)
	l.notify = make(chan struct{})
	return err
}
