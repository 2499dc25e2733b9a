package relation

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"hazy/internal/storage"
	"hazy/internal/wal"
)

// This file is the catalog's durability engine: the WAL record codec
// for table mutations, the group-commit surface writers acknowledge
// through, and the redo pass Recover runs over the log tail.
//
// The protocol is write-ahead at the relation layer: a mutation
// appends its logical record to the log and applies it to the heap
// inside one critical section (under the checkpoint lock), then
// commits the log — one fsync per statement in durable mode, one per
// batch when the maintenance engine defers the commit. Heap pages
// only reach disk at a checkpoint or an LRU eviction, and both sync
// the log first, so on-disk pages never run ahead of the on-disk log.
//
// Recovery is redo-only and idempotent: the manifest names a
// checkpoint position whose effects are fully contained in the
// flushed pages; every intact record past it is re-applied, skipping
// effects the pages already contain (an insert whose key is present,
// a delete whose key is gone). A torn or corrupt tail record ends the
// redo cleanly, so the database always reopens as a prefix of the
// logged history.

// WAL payload op codes.
const (
	walInsert = byte(1)
	walUpdate = byte(2)
	walDelete = byte(3)
	// walImage is a full-page image, journaled just before a dirty
	// table page is written back in place (checkpoint flush or LRU
	// eviction) in durable mode — the full-page-writes defense: an
	// in-place page write torn by a crash is repaired from the last
	// journaled image before the heap is scanned.
	walImage = byte(4)
)

// encodeMutation frames one table mutation:
//
//	[1B op][2B table-name length][table name][body]
//
// where body is the encoded tuple for inserts and updates, and the
// 8-byte key for deletes.
func encodeMutation(op byte, table string, body []byte) []byte {
	buf := make([]byte, 0, 3+len(table)+len(body))
	buf = append(buf, op)
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(table)))
	buf = append(buf, n[:]...)
	buf = append(buf, table...)
	return append(buf, body...)
}

func decodeMutation(payload []byte) (op byte, table string, body []byte, err error) {
	if len(payload) < 3 {
		return 0, "", nil, fmt.Errorf("relation: wal record of %d bytes too short", len(payload))
	}
	op = payload[0]
	n := int(binary.LittleEndian.Uint16(payload[1:3]))
	if len(payload) < 3+n {
		return 0, "", nil, fmt.Errorf("relation: wal record table name truncated")
	}
	return op, string(payload[3 : 3+n]), payload[3+n:], nil
}

// deleteBody encodes a delete record's 8-byte key body.
func deleteBody(key int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(key))
	return b[:]
}

// compensate appends a record neutralizing a mutation that was logged
// but whose heap apply then failed, so recovery never replays a
// statement the client saw fail. Best effort: if even this append
// fails the log is likely dead and nothing after it will commit
// either.
func (t *Table) compensate(op byte, body []byte) {
	_ = t.logMutation(op, body) //nolint:errcheck — see above
}

// logMutation appends one mutation record for t. Callers hold the
// checkpoint read lock and t.mu, so the append and the heap apply
// that follows are atomic with respect to Checkpoint. A nil log
// (standalone NewTable, no DB) logs nothing.
func (t *Table) logMutation(op byte, body []byte) error {
	if t.db == nil || t.db.log == nil {
		return nil
	}
	_, err := t.db.log.Append(encodeMutation(op, t.name, body))
	return err
}

// lockMutation enters a mutation's critical section with respect to
// checkpointing; the returned func leaves it.
func (t *Table) lockMutation() func() {
	if t.db == nil {
		return func() {}
	}
	t.db.ckptMu.RLock()
	return t.db.ckptMu.RUnlock
}

// commitWAL makes the table's logged mutations durable (statement
// granularity). Deferred writers skip it and call DB.CommitLog once
// per batch.
func (t *Table) commitWAL() error {
	if t.db == nil {
		return nil
	}
	return t.db.CommitLog()
}

// CommitLog is the group-commit barrier: it makes every record
// appended so far durable under the DB's sync mode, then — if the
// commit crossed a segment rotation — triggers a checkpoint, keeping
// the replayable tail about one segment long. The maintenance
// engine's batch apply calls it once per batch; Table mutations call
// it per statement.
func (db *DB) CommitLog() error {
	if db.log == nil {
		return nil
	}
	if err := db.log.Commit(); err != nil {
		return err
	}
	if db.log.TakeRotated() {
		ckpt := db.Checkpoint
		if db.ckptHook != nil {
			ckpt = db.ckptHook
		}
		if err := ckpt(); err != nil {
			// The rotation still owes a checkpoint; re-arm so the
			// next commit retries instead of letting the replayable
			// tail grow segment over segment.
			db.log.MarkRotated()
			return err
		}
	}
	return nil
}

// SetCheckpointHook routes rotation-triggered checkpoints through fn
// instead of the bare relation-level Checkpoint — the hazy layer
// points it at its catalog-wide checkpoint (manifest plus storage).
// Set once at open, before the DB is shared across goroutines.
func (db *DB) SetCheckpointHook(fn func() error) { db.ckptHook = fn }

// LogEnd returns the current end of the write-ahead log.
func (db *DB) LogEnd() wal.Pos { return db.log.End() }

// replayMutation redoes one logged mutation against the recovered
// catalog, bypassing the log and triggers. It is idempotent: effects
// already present in the flushed pages are skipped.
func (db *DB) replayMutation(payload []byte) error {
	op, name, body, err := decodeMutation(payload)
	if err != nil {
		return err
	}
	if op == walImage {
		return nil // applied by the image pre-pass
	}
	if op == walMeta {
		// Catalog metadata for replication: no heap effect, but the
		// newest blob is kept so a replica reopening mid-stream can
		// reconcile DDL whose side effects a crash interrupted.
		db.lastMeta = body
		return nil
	}
	if op == walShipped {
		// A replica's journal of an applied primary record: track the
		// resume cursor, then redo the wrapped record idempotently.
		pos, inner, err := decodeShipped(body)
		if err != nil {
			return err
		}
		if db.shipped.Before(pos) {
			db.shipped = pos
		}
		return db.replayMutation(inner)
	}
	t, err := db.Table(name)
	if err != nil {
		return fmt.Errorf("relation: wal replay: %w", err)
	}
	// Recovery runs before any trigger is installed (views are rebuilt
	// from the recovered tables), so the trigger a redo owes is dropped.
	_, err = t.redo(op, body)
	return err
}

// redo applies one logged mutation to the heap and primary-key index,
// bypassing the log. It is idempotent — an insert whose key is present
// or a delete whose key is absent already took effect — and returns
// the trigger invocation the mutation owes (nil when it had already
// taken effect), for the caller to run after the locks drop. Crash
// recovery and a replica's ApplyShipped share it.
func (t *Table) redo(op byte, body []byte) (fire func() error, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch op {
	case walInsert, walUpdate:
		tup, err := DecodeTuple(t.schema, body)
		if err != nil {
			return nil, fmt.Errorf("relation: redo %q: %w", t.name, err)
		}
		key := tup.Key(t.schema)
		rid, exists := t.pk[key]
		if op == walInsert {
			if exists {
				return nil, nil // already applied, trigger included
			}
			nrid, err := t.heap.Insert(body)
			if err != nil {
				return nil, err
			}
			t.pk[key] = nrid
			return func() error { return t.fire(AfterInsert, nil, tup) }, nil
		}
		if !exists {
			// An update's insert always precedes it in the log; if the
			// key is absent the record would redo against nothing.
			return nil, fmt.Errorf("relation: redo: update of missing key %d in %q", key, t.name)
		}
		prev, err := t.rowAt(rid)
		if err != nil {
			return nil, err
		}
		nrid, err := t.heap.Update(rid, body)
		if err != nil {
			return nil, err
		}
		t.pk[key] = nrid
		return func() error { return t.fire(AfterUpdate, prev, tup) }, nil
	case walDelete:
		if len(body) != 8 {
			return nil, fmt.Errorf("relation: redo: delete body of %d bytes", len(body))
		}
		key := int64(binary.LittleEndian.Uint64(body))
		rid, exists := t.pk[key]
		if !exists {
			return nil, nil // already gone
		}
		prev, err := t.rowAt(rid)
		if err != nil {
			return nil, err
		}
		if err := t.heap.Delete(rid); err != nil {
			return nil, err
		}
		delete(t.pk, key)
		return func() error { return t.fire(AfterDelete, prev, nil) }, nil
	default:
		return nil, fmt.Errorf("relation: redo: unknown op %d", op)
	}
}

// Checkpoint flushes all buffer pools, writes the catalog manifest
// with the log position whose effects the flushed pages now contain,
// and prunes log segments below it. After a successful checkpoint,
// recovery replays only the log tail past the recorded position.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	err := db.checkpointLocked()
	pos := db.ckpt
	db.ckptMu.Unlock()
	if err != nil {
		return err
	}
	if db.log != nil {
		return db.log.Checkpoint(pos)
	}
	return nil
}

// checkpointLocked does the flush + manifest write under the
// exclusive checkpoint lock: no mutation is mid-flight, so every
// logged record below the captured position has been applied to the
// heaps being flushed. The catalog read lock is held throughout so a
// checkpoint firing from an engine goroutine (segment rotation) never
// races DDL's map mutations.
func (db *DB) checkpointLocked() error {
	db.catMu.RLock()
	defer db.catMu.RUnlock()
	var pos wal.Pos
	if db.log != nil {
		pos = db.log.End()
	}
	for _, pool := range db.pools {
		if err := pool.FlushAll(); err != nil {
			return err
		}
	}
	for _, p := range db.pagers {
		if err := p.Sync(); err != nil {
			return err
		}
	}
	if err := db.writeManifest(pos); err != nil {
		return err
	}
	db.ckpt = pos
	return nil
}

// pageImageHook builds the per-page journal hook for a table pool in
// durable mode: before a dirty page of file is overwritten in place,
// its full image is appended to the log. The pool's write-back
// barrier (logSyncBarrier) then fsyncs once per write-back group —
// so the write-ahead invariant holds for evictions between
// checkpoints, a torn in-place write is repairable from the journaled
// image, and a checkpoint flush of N pages pays one fsync.
func (db *DB) pageImageHook(file string) func(storage.PageID, []byte) error {
	return func(id storage.PageID, data []byte) error {
		if db.log == nil {
			return nil
		}
		_, err := db.log.Append(encodeMutation(walImage, file, encodeImage(id, data)))
		return err
	}
}

// logSyncBarrier is the pools' write-back barrier: every journaled
// image (and every logical record before it) reaches disk before any
// page does.
func (db *DB) logSyncBarrier() error {
	if db.log == nil {
		return nil
	}
	return db.log.Sync()
}

// encodeImage frames a page image body: [4B page id][page bytes].
func encodeImage(id storage.PageID, data []byte) []byte {
	body := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(body[0:4], uint32(id))
	copy(body[4:], data)
	return body
}

// applyImagePass restores journaled page images from the log tail
// directly into the page files, before any table is attached — torn
// in-place page writes heal here. Later images of the same page
// overwrite earlier ones, converging on the last journaled state.
func (db *DB) applyImagePass(start wal.Pos) error {
	if db.log == nil {
		return nil
	}
	files := map[string]storage.File{}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	return db.log.Replay(start, func(_ wal.Pos, payload []byte) error {
		op, file, body, err := decodeMutation(payload)
		if err != nil || op != walImage {
			return err // nil for non-image records
		}
		if len(body) < 4+storage.PageSize {
			return fmt.Errorf("relation: wal page image of %d bytes", len(body))
		}
		id := storage.PageID(binary.LittleEndian.Uint32(body[0:4]))
		f, ok := files[file]
		if !ok {
			f, err = db.vfs.OpenFile(filepath.Join(db.dir, file))
			if err != nil {
				return fmt.Errorf("relation: wal image restore open %s: %w", file, err)
			}
			files[file] = f
		}
		if _, err := f.WriteAt(body[4:4+storage.PageSize], int64(id)*storage.PageSize); err != nil {
			return fmt.Errorf("relation: wal image restore %s page %d: %w", file, id, err)
		}
		return nil
	})
}

// repairPageFile rounds a page file's size down to a whole number of
// pages: a crash can tear a file-extending page allocation, and the
// torn tail page was never referenced by any durable structure.
func repairPageFile(vfs storage.VFS, path string) error {
	f, err := vfs.OpenFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	if rem := size % storage.PageSize; rem != 0 {
		return f.Truncate(size - rem)
	}
	return nil
}
