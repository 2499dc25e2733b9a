package relation

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hazy/internal/storage"
	"hazy/internal/wal"
)

// Log shipping at the relation layer: a primary exposes its WAL and a
// consistent checkpoint image; a replica applies the shipped records
// through the same heap/index/trigger machinery a local mutation
// uses, re-journaling each one locally wrapped in a walShipped record
// that carries the primary position it came from. A replica's crash
// recovery is therefore the ordinary Recover path — the wrapped
// records replay idempotently — and the resume cursor is exact: the
// last wrapped record the local log retained IS the position to
// resume the stream from, so a crash can never double-apply a record
// whose effect (and trigger) already ran.

// Replication op codes, continuing the durability.go WAL code space.
const (
	// walMeta carries an opaque catalog-metadata blob (the hazy-level
	// manifest) appended by the primary after every DDL so schema
	// changes ride the same total order as the mutations that follow
	// them. Recovery skips it; a replica's applier reconciles on it.
	walMeta = byte(5)
	// walShipped wraps one applied primary record on a replica:
	// [4B seg][8B off] — the primary position to resume from once this
	// record is applied — followed by the original payload.
	walShipped = byte(6)
)

// Shippable reports whether a WAL record is worth streaming to a
// replica. Full-page images are not: they describe the primary's page
// files, and the replica maintains its own.
func Shippable(payload []byte) bool {
	return len(payload) > 0 && payload[0] != walImage
}

// Log exposes the write-ahead log for shipping (a Follower per
// replica connection). Nil when the DB was opened without one.
func (db *DB) Log() *wal.Log { return db.log }

// AppendMetaRecord appends an opaque catalog-metadata record to the
// log, so connected replicas receive the DDL it describes in stream
// order — before any mutation on the objects it declares. It only
// appends: the caller commits (CommitLog) once it has released
// whatever locks the rotation-triggered checkpoint hook would need.
// Recovery ignores these records beyond remembering the newest one.
func (db *DB) AppendMetaRecord(body []byte) error {
	if db.log == nil {
		return nil
	}
	db.ckptMu.RLock()
	_, err := db.log.Append(encodeMutation(walMeta, "", body))
	db.ckptMu.RUnlock()
	return err
}

// LastMeta returns the newest catalog-metadata blob seen by recovery,
// or nil. A replica reconciles DDL against it at startup: a crash
// between journaling a shipped meta record and finishing its side
// effects would otherwise skip that DDL forever (the record replays as
// a no-op and the stream resumes past it).
func (db *DB) LastMeta() []byte { return db.lastMeta }

// Bootstrapped reports whether dir holds a database image (its
// manifest exists) — the probe a replica boot uses to decide between
// fetching a fresh image and resuming from local state.
func Bootstrapped(vfs storage.VFS, dir string) bool {
	_, err := vfs.ReadFile(filepath.Join(dir, manifestFile))
	return err == nil
}

// LastShipped returns the primary position one past the last shipped
// record this database applied — the position to resume the stream
// from. Zero when the database never applied a shipped record.
func (db *DB) LastShipped() wal.Pos {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.shipped
}

// ApplyShipped applies one primary WAL record on a replica: the
// record is journaled locally (wrapped with resume, the primary
// position one past it), applied to the heap and primary-key index
// through Table.redo — the idempotent redo recovery uses — and its
// trigger is fired, so view maintenance sees exactly the primary's
// mutation order. A record at or below the resume cursor was already
// applied and is skipped whole.
// Catalog-metadata records carry no heap effect; their body is
// returned for the caller to reconcile DDL against. The caller owns
// the commit barrier (CommitLog once per applied batch) and must be
// the only writer on this database.
func (db *DB) ApplyShipped(resume wal.Pos, payload []byte) (meta []byte, err error) {
	op, name, body, err := decodeMutation(payload)
	if err != nil {
		return nil, err
	}
	// A promoted replica's log wraps what it applied; if this primary
	// was once a replica itself, unwrap down to the original record.
	for op == walShipped {
		_, inner, derr := wal.DecodePosFrame(body)
		if derr != nil {
			return nil, fmt.Errorf("relation: shipped record: %w", derr)
		}
		payload = inner
		if op, name, body, err = decodeMutation(payload); err != nil {
			return nil, err
		}
	}
	db.ckptMu.RLock()
	if !db.shipped.Before(resume) {
		// Re-delivered: its effect and trigger already ran here.
		db.ckptMu.RUnlock()
		return nil, nil
	}
	if db.log != nil {
		if _, aerr := db.log.Append(encodeMutation(walShipped, "", wal.EncodePosFrame(resume, payload))); aerr != nil {
			db.ckptMu.RUnlock()
			return nil, aerr
		}
	}
	db.shipped = resume
	var fire func() error
	switch op {
	case walImage:
		// The primary's page layout, not ours: cursor-only record.
	case walMeta:
		meta = body
	default:
		var t *Table
		if t, err = db.Table(name); err == nil {
			fire, err = t.redo(op, body)
		}
	}
	db.ckptMu.RUnlock()
	if err != nil {
		return nil, err
	}
	// Like every local mutation, triggers fire outside the row lock.
	if fire != nil {
		err = fire()
	}
	return meta, err
}

// CheckpointImage produces a consistent bootstrap image for a fresh
// replica: the log is committed and the whole catalog checkpointed
// under the exclusive checkpoint lock, then the manifest, every
// table's page file, and each extra file (e.g. the hazy-level
// manifest) are streamed through send while no mutation can run. The
// returned position is the exact point a replica applying this image
// must resume the record stream from.
func (db *DB) CheckpointImage(extra []string, send func(name string, data []byte) error) (wal.Pos, error) {
	db.ckptMu.Lock()
	err := db.imageLocked(extra, send)
	pos := db.ckpt
	db.ckptMu.Unlock()
	if err != nil {
		return pos, err
	}
	if db.log != nil {
		if err := db.log.Checkpoint(pos); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

func (db *DB) imageLocked(extra []string, send func(string, []byte) error) error {
	// Commit first so the checkpoint position equals the committed
	// end: the image then contains no effect of a record the replica
	// could not resume past (appended but unsynced bytes).
	if db.log != nil {
		if err := db.log.Commit(); err != nil {
			return err
		}
	}
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	db.catMu.RLock()
	files := []string{manifestFile}
	for _, name := range db.tableNamesLocked() {
		files = append(files, name+".tbl")
	}
	db.catMu.RUnlock()
	files = append(files, extra...)
	for _, f := range files {
		data, err := db.vfs.ReadFile(filepath.Join(db.dir, f))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("relation: image read %s: %w", f, err)
		}
		if err := send(f, data); err != nil {
			return err
		}
	}
	return nil
}

// PrimeReplicaManifest rewrites an imported checkpoint image's
// manifest for its new home: the primary's WAL position is dropped
// (the replica's own log starts empty — its numbering is unrelated)
// and the shipped cursor is set to the image position, so the first
// open resumes the stream exactly where the image left off.
func PrimeReplicaManifest(vfs storage.VFS, dir string, shipped wal.Pos) error {
	path := filepath.Join(dir, manifestFile)
	data, err := vfs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("relation: prime replica manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("relation: prime replica manifest: %w", err)
	}
	m.Wal = nil
	m.Shipped = &shipped
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("relation: prime replica manifest: %w", err)
	}
	if err := storage.WriteFileAtomic(vfs, path, out, true); err != nil {
		return fmt.Errorf("relation: prime replica manifest: %w", err)
	}
	return nil
}
