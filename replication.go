package hazy

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hazy/internal/core"
	"hazy/internal/relation"
	"hazy/internal/replica"
	"hazy/internal/storage"
	"hazy/internal/wal"
)

// Read-replica scale-out. A primary ships its committed WAL to any
// number of replicas (StartShipping); a replica seeds itself from a
// checkpoint image (BootstrapReplica), opens normally, and tails the
// stream (StartReplica), applying every record through the relation
// layer's idempotent redo path — triggers included, so each replica
// maintains its own classification views in the primary's exact
// mutation order. Replica reads come lock-free from view snapshots
// republished after every applied batch; mutations are rejected until
// PROMOTE stops the applier and turns the replica into a writable
// primary at the exact position it had applied to.
//
// Consistency: a replica serves a prefix of the primary's history
// (prefix-consistent, bounded by the lag gauges); read-your-writes
// holds only on the primary.

// errReadOnly rejects every mutation surface while this process
// serves as a replica.
var errReadOnly = fmt.Errorf("hazy: read-only replica: writes go to the primary (PROMOTE to accept writes)")

// writable errors while the database is in read-only replica mode.
func (db *DB) writable() error {
	if db.readOnly.Load() {
		return errReadOnly
	}
	return nil
}

// ReadOnly reports whether the database is serving as a read-only
// replica.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// StatementMu is the statement-serialization lock shared by every
// writer surface: the server wraps each statement in it, and a
// replica's log applier holds it per applied record — so shipped
// records and local statements interleave whole, never halfway.
func (db *DB) StatementMu() *sync.Mutex { return &db.stmtMu }

// shipMetaLocked appends the current catalog manifest to the WAL as a
// metadata record, so the DDL it reflects reaches replicas in stream
// order. Callers hold db.mu — the append must land before any
// mutation on the just-declared object can be journaled — and own the
// commit barrier (CommitLog after db.mu is released).
func (db *DB) shipMetaLocked() error {
	data, err := json.Marshal(db.buildMeta())
	if err != nil {
		return fmt.Errorf("hazy: marshal meta record: %w", err)
	}
	return db.rel.AppendMetaRecord(data)
}

// primaryAdapter narrows DB to what the shipper needs.
type primaryAdapter struct{ db *DB }

func (p primaryAdapter) Log() *wal.Log { return p.db.rel.Log() }

func (p primaryAdapter) CheckpointImage(send func(name string, data []byte) error) (wal.Pos, error) {
	return p.db.checkpointImage(send)
}

// checkpointImage writes the hazy manifest, checkpoints the whole
// catalog, and streams every file a fresh replica needs (the relation
// manifest, each table's pages, and the hazy manifest).
func (db *DB) checkpointImage(send func(name string, data []byte) error) (wal.Pos, error) {
	db.mu.Lock()
	err := db.saveMeta()
	db.mu.Unlock()
	if err != nil {
		return wal.Pos{}, err
	}
	return db.rel.CheckpointImage([]string{metaFile}, send)
}

// StartShipping starts serving the replication stream on addr
// (":7071", or "127.0.0.1:0" for an ephemeral test port). Replicas
// connect with BootstrapReplica + StartReplica. The shipper closes
// with the database; the returned handle's Addr resolves ":0".
func (db *DB) StartShipping(addr string) (*replica.Shipper, error) {
	s, err := replica.NewShipper(primaryAdapter{db}, addr, db.repl)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.shipper = s
	db.mu.Unlock()
	return s, nil
}

// BootstrapReplica seeds dir from the primary shipping at addr: it
// fetches a consistent checkpoint image, writes its files, and primes
// the manifest so the next OpenWith + StartReplica resumes the stream
// exactly where the image left off. A dir that already holds a
// database is left untouched (reopen-and-resume); only a fresh or
// empty dir fetches an image.
func BootstrapReplica(dir, addr string, opts OpenOptions) error {
	vfs := opts.VFS
	if vfs == nil {
		vfs = storage.OS
	}
	if relation.Bootstrapped(vfs, dir) {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("hazy: bootstrap replica: %w", err)
	}
	pos, err := replica.Bootstrap(addr, func(name string, data []byte) error {
		if filepath.Base(name) != name || name == "" {
			return fmt.Errorf("hazy: bootstrap replica: image file name %q", name)
		}
		return storage.WriteFileAtomic(vfs, filepath.Join(dir, name), data, true)
	})
	if err != nil {
		return err
	}
	return relation.PrimeReplicaManifest(vfs, dir, pos)
}

// replicaTarget feeds the applier's stream into the database under
// the statement lock.
type replicaTarget struct{ db *DB }

func (t replicaTarget) Apply(resume wal.Pos, payload []byte) error {
	db := t.db
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	meta, err := db.rel.ApplyShipped(resume, payload)
	if err != nil {
		return err
	}
	if meta != nil {
		return db.applyMeta(meta)
	}
	return nil
}

func (t replicaTarget) Commit() error {
	db := t.db
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if err := db.rel.CommitLog(); err != nil {
		return err
	}
	db.publishSnapshots()
	db.repl.Publishes.Inc()
	return nil
}

// StartReplica puts the database in read-only replica mode and starts
// tailing the primary shipping at addr: mutations are rejected with a
// clear error, reads serve from republished view snapshots, and the
// stream resumes from the locally recovered cursor. logf (optional)
// receives connection-lifecycle lines. A terminal stream error parks
// the applier — the replica keeps serving its last applied state; see
// ReplicaErr — and PROMOTE at any time turns the database writable.
func (db *DB) StartReplica(addr string, logf func(format string, args ...any)) error {
	db.readOnly.Store(true)
	// Reconcile DDL whose shipped meta record outlived its side
	// effects (a crash between journal and reconcile), then publish so
	// reads never touch the structures the applier will mutate.
	if m := db.rel.LastMeta(); m != nil {
		if err := db.applyMeta(m); err != nil {
			return err
		}
	}
	db.publishSnapshots()
	a := replica.StartApplier(replicaTarget{db}, replica.Options{
		Addr:    addr,
		Resume:  db.rel.LastShipped(),
		Metrics: db.repl,
		Logf:    logf,
	})
	db.mu.Lock()
	db.applier = a
	db.mu.Unlock()
	return nil
}

// applyMeta reconciles a shipped catalog manifest: tables and views
// the primary declared but this replica lacks are created (views over
// an unregistered custom feature function park in the pending list,
// like Open). Idempotent — the manifest is a full snapshot, and
// existing objects are left alone.
func (db *DB) applyMeta(body []byte) error {
	var m metaManifest
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("hazy: shipped meta record: %w", err)
	}
	for _, mt := range m.Tables {
		db.mu.RLock()
		_, haveT := db.tables[mt.Name]
		_, haveX := db.examples[mt.Name]
		db.mu.RUnlock()
		if haveT || haveX {
			continue
		}
		switch mt.Kind {
		case "entity":
			if _, err := db.createEntityTable(mt.Name, mt.TextCol); err != nil {
				return fmt.Errorf("hazy: reconcile table %q: %w", mt.Name, err)
			}
		case "example":
			if _, err := db.createExampleTable(mt.Name); err != nil {
				return fmt.Errorf("hazy: reconcile table %q: %w", mt.Name, err)
			}
		default:
			return fmt.Errorf("hazy: shipped meta record: table %q has unknown kind %q", mt.Name, mt.Kind)
		}
	}
	for _, mv := range m.Views {
		// A parked view waits for RecoverPendingViews, even once its
		// function is registered.
		db.mu.RLock()
		_, have := db.views[mv.Name]
		have = have || db.parkedLocked(mv.Name)
		db.mu.RUnlock()
		if have {
			continue
		}
		spec, err := mv.spec()
		if err != nil {
			return err
		}
		if err := db.declareOrDefer(spec, true); err != nil {
			return fmt.Errorf("hazy: reconcile view %q: %w", mv.Name, err)
		}
	}
	db.publishSnapshots()
	return nil
}

// publishSnapshots republishes every main-memory view's serving
// snapshot — the replica read surface. On-disk and hybrid views keep
// serving live under the statement lock: a snapshot would copy a
// disk-resident view into RAM on every replica commit.
func (db *DB) publishSnapshots() {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, cv := range db.views {
		sn, ok := cv.view.(core.Snapshotter)
		if !ok || cv.spec.Arch != core.MainMemory {
			continue
		}
		snap, err := sn.Snapshot()
		if err != nil {
			continue // keep the previous published snapshot
		}
		cv.pub.Store(snap)
	}
}

// Promote turns a replica into a writable primary at the exact
// position it had applied to: the applier stops (its last batch
// commits), the read-only gate lifts, reads return to the live
// structures, and the whole catalog is checkpointed. Safe to call on
// a replica whose applier already died of a terminal error — that is
// the failover case. Must not be called while holding StatementMu
// (the applier needs it to finish its in-flight record); the server
// routes PROMOTE around its statement lock for exactly that reason.
func (db *DB) Promote() error {
	db.mu.Lock()
	a := db.applier
	db.applier = nil
	db.mu.Unlock()
	if a == nil && !db.readOnly.Load() {
		return fmt.Errorf("hazy: not a replica (nothing to promote)")
	}
	if a != nil {
		a.Stop() //nolint:errcheck — a dead stream is the failover case, not a promote error
	}
	db.readOnly.Store(false)
	db.mu.RLock()
	for _, cv := range db.views {
		cv.pub.Store(nil)
	}
	db.mu.RUnlock()
	return db.Checkpoint()
}

// ReplicaErr returns the applier's terminal error, if the stream died
// of one (nil while healthy, or when not a replica).
func (db *DB) ReplicaErr() error {
	db.mu.RLock()
	a := db.applier
	db.mu.RUnlock()
	if a == nil {
		return nil
	}
	return a.Err()
}

// DisconnectReplica severs the replica's current stream connection,
// forcing a reconnect-and-resume cycle — an operational and testing
// aid. No-op when not a replica.
func (db *DB) DisconnectReplica() {
	db.mu.RLock()
	a := db.applier
	db.mu.RUnlock()
	if a != nil {
		a.Disconnect()
	}
}

// AppliedPos returns the primary position one past the last shipped
// record this database applied (zero when it never applied one).
func (db *DB) AppliedPos() wal.Pos { return db.rel.LastShipped() }

// WALEnd returns the committed end of this database's own write-ahead
// log — on a primary, the position a fully caught-up replica's
// AppliedPos converges to.
func (db *DB) WALEnd() wal.Pos {
	l := db.rel.Log()
	if l == nil {
		return wal.Pos{}
	}
	return l.CommittedEnd()
}
