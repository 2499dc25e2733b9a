// Package hazy is a from-scratch Go reproduction of the Hazy system
// ("Incrementally Maintaining Classification using an RDBMS",
// Koc & Ré, PVLDB 4(5), 2011): classification views maintained inside
// a relational engine under a stream of training-example updates.
//
// A classification view labels every entity of an entity table with
// ±1 using a linear model (SVM, logistic regression, or ridge)
// trained incrementally from an examples table. Hazy keeps the view
// fresh cheaply by clustering entities on their signed distance to
// the decision hyperplane (eps), maintaining low/high watermarks from
// Hölder's inequality so that only tuples inside [lw, hw] can have
// changed label, and reorganizing the clustering per the Skiing
// online strategy, which is 2-competitive as data grows.
//
// The front door is the Session API, which executes the paper's SQL
// dialect (§2.1) against the whole catalog — the same statements work
// embedded, in the hazyql REPL, and over the wire through hazyd's
// SQL command:
//
//	db, _ := hazy.Open(dir)
//	defer db.Close()
//	sess := db.NewSession()
//	sess.Exec(`CREATE TABLE papers (id BIGINT, title TEXT) KEY id`)
//	sess.Exec(`CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id`)
//	sess.Exec(`INSERT INTO papers VALUES (1, 'query optimization in relational databases')`)
//	sess.Exec(`CREATE CLASSIFICATION VIEW labeled_papers KEY id
//	           ENTITIES FROM papers KEY id
//	           EXAMPLES FROM feedback KEY id LABEL label
//	           FEATURE FUNCTION tf_bag_of_words USING SVM`)
//	sess.Exec(`INSERT INTO feedback VALUES (1, 1)`) // retrains + maintains the view
//	res, _ := sess.Exec(`SELECT class FROM labeled_papers WHERE id = 1`)
//	sess.Exec(`SELECT id FROM labeled_papers ORDER BY ABS(eps) LIMIT 5`) // active-learning picks
//
// SELECTs are lowered by the internal/exec planner onto the physical
// structure that answers them — id point reads, the members set, or
// an eps-range scan of the clustered layout — and stream row at a
// time (Session.Query); EXPLAIN SELECT prints the chosen plan.
//
// The equivalent Go-level calls (CreateEntityTable,
// CreateClassificationView, Session.Bind, …) remain available and
// interoperate with SQL — both surfaces share one catalog, which is
// persisted in the database directory's manifest and recovered by
// Open, views included.
//
// For concurrent serving, attach the maintenance engine to a view
// (AttachEngine, or the SQL statement ATTACH ENGINE TO <view>):
// reads then come lock-free from the view's published version and
// writes are batched through a bounded queue, whichever surface they
// arrive on.
//
// Durability: every table mutation is appended to a write-ahead log
// (internal/wal) before it touches heap pages, and Open replays the
// log tail past the last checkpoint — a crash at any byte offset
// reopens the database as a prefix of the acknowledged writes, with
// the views recomputed to match. OpenWith selects the fsync policy
// ("always" for power-loss durability with group commit, "off" —
// the embedded default — for process-crash durability only); the SQL
// statement CHECKPOINT, DB.Checkpoint, and WAL segment rotation all
// flush the catalog and prune the log.
package hazy

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"hazy/internal/core"
	"hazy/internal/engine"
	"hazy/internal/feature"
	"hazy/internal/learn"
	"hazy/internal/obs"
	"hazy/internal/relation"
	"hazy/internal/replica"
	"hazy/internal/sched"
	"hazy/internal/storage"
	"hazy/internal/wal"
)

// Re-exported architecture, strategy, and mode selectors.
const (
	MainMemory = core.MainMemory
	OnDisk     = core.OnDisk
	Hybrid     = core.HybridArch

	Naive = core.Naive
	Hazy  = core.HazyStrategy

	Eager = core.Eager
	Lazy  = core.Lazy
)

// Entity is re-exported for direct (vector) views.
type Entity = core.Entity

// Stats is re-exported from the maintenance core.
type Stats = core.Stats

// DB is a Hazy database: a catalog of relational tables and the
// classification views maintained over them.
type DB struct {
	dir          string
	rel          *relation.DB
	registry     *feature.Registry
	metrics      *obs.Registry
	pool         *sched.Pool // shared maintenance scheduler for all engines and striped views
	vfs          storage.VFS
	fsync        wal.SyncMode
	defaultParts int

	// mu guards the catalog maps, engine attachment, and manifest
	// writes. View maintenance itself is synchronized by the caller
	// (single-threaded embedded use, the server's statement lock, or
	// an attached engine's goroutine).
	mu       sync.RWMutex
	views    map[string]*ClassView
	tables   map[string]*EntityTable
	examples map[string]*ExampleTable
	specs    map[string]ViewSpec // persisted view declarations
	pending  []ViewSpec          // manifest views awaiting a custom feature function, one per name
	creating map[string]bool     // view names reserved by an in-flight create

	// sessions numbers the sessions; each one's number is its engine
	// token, so its async failures reach only its own Flush.
	sessions atomic.Uint64

	// Replication (replication.go). stmtMu serializes whole statements
	// across every writer surface — the server shares it, and on a
	// replica the log applier holds it per applied record — so shipped
	// records interleave with local statements, never with half of one.
	// readOnly flips on while this process serves as a replica; repl is
	// registered at open so the replica metric names surface everywhere.
	stmtMu   sync.Mutex
	readOnly atomic.Bool
	repl     *replica.Metrics
	shipper  *replica.Shipper
	applier  *replica.Applier
}

// OpenOptions configures a database's durability machinery.
type OpenOptions struct {
	// Fsync is the write-ahead-log commit policy: "always" (every
	// acknowledged write is fsynced — group-committed, so an engine
	// batch pays one fsync) or "off" (appends reach the OS
	// synchronously but are never fsynced: acknowledged writes
	// survive a process crash, not power loss). Default "off" —
	// embedded callers favor throughput; hazyd defaults to "always".
	Fsync string
	// WALSegmentBytes caps a log segment before rotation; each
	// rotation triggers a catalog checkpoint, bounding recovery work
	// to about one segment of replay. Default 4 MiB.
	WALSegmentBytes int64
	// VFS is the file layer beneath every pager and log segment
	// (default the real filesystem). The crash-safety tests
	// interpose internal/storage/faultfs here.
	VFS storage.VFS
	// DefaultPartitions stripes every Hazy-strategy view declared
	// WITHOUT an explicit PARTITIONS clause — whatever its
	// architecture — into this many hash partitions (parallel
	// reorganization and rescans across a worker pool). 0 or 1 leaves
	// such views unstriped. The resolved count is persisted with the
	// view's declaration, so reopening without the option keeps
	// existing views striped as declared.
	DefaultPartitions int
	// MaintWorkers sizes the catalog's shared maintenance pool — the
	// single scheduler every attached engine's batches and every
	// striped view's per-stripe tasks run on, so total maintenance
	// goroutines stay O(MaintWorkers) however many views are attached.
	// 0 (the default) uses GOMAXPROCS.
	MaintWorkers int
}

// Open creates or reopens a database directory with default
// durability options. The catalog manifest records every table's kind
// (entity vs examples) and every view's declaration, so Open recovers
// the tables — replaying the write-ahead log's tail past the last
// checkpoint, so a crash mid-batch loses at most the unlogged suffix
// — and re-declares each classification view. The view contents
// (labels, eps clustering, watermarks) are recomputed from the
// recovered entities and examples (§3.5.1), never stored, so the
// ε-index always agrees with the recovered tables. Directories
// written before the manifest existed fall back to a schema-shape
// heuristic for table kinds and recover no views.
func Open(dir string) (*DB, error) { return OpenWith(dir, OpenOptions{}) }

// OpenWith is Open with explicit durability options.
func OpenWith(dir string, opts OpenOptions) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("hazy: %w", err)
	}
	mode := wal.SyncOff
	if opts.Fsync != "" {
		var err error
		if mode, err = wal.ParseSyncMode(opts.Fsync); err != nil {
			return nil, fmt.Errorf("hazy: %w", err)
		}
	}
	vfs := opts.VFS
	if vfs == nil {
		vfs = storage.OS
	}
	metrics := obs.NewRegistry()
	pool := sched.NewPool(opts.MaintWorkers, metrics)
	rel, err := relation.OpenDBWith(dir, 512, relation.Options{
		VFS:             vfs,
		Fsync:           mode,
		WALSegmentBytes: opts.WALSegmentBytes,
		Metrics:         metrics,
	})
	if err != nil {
		pool.Close()
		return nil, err
	}
	// A failed open must release the log and pager handles it
	// acquired — without checkpointing, which could overwrite a good
	// manifest with partially recovered state — and stop the
	// maintenance pool it started.
	opened := false
	defer func() {
		if !opened {
			rel.Abort()
			pool.Close()
		}
	}()
	db := &DB{
		dir:          dir,
		rel:          rel,
		registry:     feature.NewRegistry(),
		metrics:      metrics,
		pool:         pool,
		vfs:          vfs,
		fsync:        mode,
		defaultParts: opts.DefaultPartitions,
		views:        map[string]*ClassView{},
		tables:       map[string]*EntityTable{},
		examples:     map[string]*ExampleTable{},
		specs:        map[string]ViewSpec{},
		creating:     map[string]bool{},
	}
	db.repl = replica.NewMetrics(metrics)
	names, err := db.rel.Recover()
	if err != nil {
		return nil, err
	}
	meta, err := loadMeta(vfs, dir)
	if err != nil {
		return nil, err
	}
	kinds := map[string]metaTable{}
	if meta != nil {
		for _, mt := range meta.Tables {
			kinds[mt.Name] = mt
		}
	}
	for _, name := range names {
		tbl, err := db.rel.Table(name)
		if err != nil {
			return nil, err
		}
		if mt, ok := kinds[name]; ok {
			switch mt.Kind {
			case "entity":
				col := tbl.Schema().ColIndex(mt.TextCol)
				if col < 0 {
					return nil, fmt.Errorf("hazy: manifest table %q: no column %q", name, mt.TextCol)
				}
				db.tables[name] = &EntityTable{db: db, tbl: tbl, textCol: col}
			case "example":
				db.examples[name] = &ExampleTable{db: db, tbl: tbl}
			default:
				return nil, fmt.Errorf("hazy: manifest table %q: unknown kind %q", name, mt.Kind)
			}
			continue
		}
		// Pre-manifest directory: guess the kind from the schema shape.
		schema := tbl.Schema()
		if len(schema.Cols) != 2 {
			continue
		}
		switch schema.Cols[1].Type {
		case relation.TString:
			db.tables[name] = &EntityTable{db: db, tbl: tbl, textCol: 1}
		case relation.TInt64:
			db.examples[name] = &ExampleTable{db: db, tbl: tbl}
		}
	}
	if meta != nil {
		for _, mv := range meta.Views {
			spec, err := mv.spec()
			if err != nil {
				return nil, err
			}
			if err := db.declareOrDefer(spec, false); err != nil {
				return nil, fmt.Errorf("hazy: recover view %q: %w", mv.Name, err)
			}
		}
	}
	// Segment rotations checkpoint the whole catalog (both manifests
	// plus flushed pages), keeping the replayable log tail about one
	// segment long.
	db.rel.SetCheckpointHook(db.Checkpoint)
	opened = true
	return db, nil
}

// Checkpoint makes the whole catalog durable right now: the hazy
// manifest (table kinds + view declarations), the relation manifest
// (schemas, heap page lists, and the WAL position they cover), and
// every dirty heap page are written out, and log segments below the
// recorded position are pruned. Recovery after a checkpoint replays
// only the log tail written since. It runs automatically on WAL
// segment rotation and at Close; the SQL statement CHECKPOINT invokes
// it on demand.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	err := db.saveMeta()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return db.rel.Checkpoint()
}

// PendingViews lists manifest views whose recovery was deferred
// because their feature function was not registered at Open time.
func (db *DB) PendingViews() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.pending))
	for _, spec := range db.pending {
		out = append(out, spec.Name)
	}
	return out
}

// RecoverPendingViews re-declares the manifest views deferred by Open
// for lack of their (custom) feature function. Call it after
// registering the functions with Registry().Register. Views whose
// functions are still missing remain pending; the first rebuild
// error is returned.
func (db *DB) RecoverPendingViews() error {
	db.mu.Lock()
	pending := db.pending
	db.pending = nil
	db.mu.Unlock()
	var first error
	for _, spec := range pending {
		if err := db.declareOrDefer(spec, false); err != nil {
			db.park(spec)
			if first == nil {
				first = fmt.Errorf("hazy: recover view %q: %w", spec.Name, err)
			}
		}
	}
	return first
}

// declareOrDefer declares a view read from a manifest — at Open, or
// shipped to a replica — unless its feature function is not
// registered: views over app-registered functions (App. A.2) cannot be
// rebuilt before the app registers them, which it does only after
// Open returns, so they park until RecoverPendingViews.
func (db *DB) declareOrDefer(spec ViewSpec, persist bool) error {
	ffName := spec.FeatureFunction
	if ffName == "" {
		ffName = "tf_bag_of_words"
	}
	if !db.registry.Has(ffName) {
		db.park(spec)
		return nil
	}
	_, err := db.createClassificationView(spec, persist)
	return err
}

// park adds spec to the pending views unless one of that name is
// already parked: a replica receives the whole manifest again with
// every DDL the primary ships.
func (db *DB) park(spec ViewSpec) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.parkedLocked(spec.Name) {
		db.pending = append(db.pending, spec)
	}
}

// parkedLocked reports whether the view name awaits
// RecoverPendingViews. Callers hold db.mu.
func (db *DB) parkedLocked(name string) bool {
	return slices.ContainsFunc(db.pending, func(p ViewSpec) bool { return p.Name == name })
}

// Close drains and detaches every attached maintenance engine, writes
// the catalog manifest, and flushes and closes all storage. It
// returns the first error — including any unreported asynchronous
// write failure surfaced by an engine's final drain.
func (db *DB) Close() error {
	// Replication machinery first: the applier must stop mutating
	// before the engines drain and the catalog closes, and the shipper
	// must release its Followers before the log closes.
	db.mu.Lock()
	shipper, applier := db.shipper, db.applier
	db.shipper, db.applier = nil, nil
	db.mu.Unlock()
	if applier != nil {
		applier.Stop() //nolint:errcheck — a terminal stream error doesn't block close
	}
	if shipper != nil {
		shipper.Close() //nolint:errcheck — listener teardown
	}
	db.mu.RLock()
	var engines []*engine.Engine
	for _, cv := range db.views {
		if eng := cv.eng.Load(); eng != nil {
			engines = append(engines, eng)
		}
	}
	db.mu.RUnlock()
	var first error
	for _, eng := range engines {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.mu.Lock()
	if err := db.saveMeta(); err != nil && first == nil {
		first = err
	}
	db.mu.Unlock()
	if err := db.rel.Close(); err != nil && first == nil {
		first = err
	}
	// The pool goes down last: the engine drains above were its final
	// clients, and a post-close straggler still runs via the pool's
	// degraded fallback rather than hanging.
	db.pool.Close()
	return first
}

// Metrics exposes the database's observability registry: every layer
// (engines, view maintenance, WAL, buffer pools, analyzed query
// operators) registers its collectors here. hazyd serves it as
// /metrics and /statsz; SHOW STATS renders it as rows.
func (db *DB) Metrics() *obs.Registry { return db.metrics }

// Registry exposes the feature-function registry so applications can
// register custom functions (paper App. A.2).
func (db *DB) Registry() *feature.Registry { return db.registry }

// EntityTable is a relational table of (id BIGINT, text TEXT) rows —
// the In relation a classification view is declared over.
type EntityTable struct {
	db      *DB
	tbl     *relation.Table
	textCol int
}

// CreateEntityTable creates a table with key column "id" and one text
// column, and records it in the catalog manifest. The DDL also rides
// the write-ahead log as a metadata record, so replicas tailing this
// database reconcile it in stream order — before any row that
// references it.
func (db *DB) CreateEntityTable(name, textColumn string) (*EntityTable, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	et, err := db.createEntityTable(name, textColumn)
	if err != nil {
		return nil, err
	}
	return et, db.rel.CommitLog()
}

// createEntityTable is CreateEntityTable without the read-only guard
// and the commit barrier — the replica applier's reconcile path.
func (db *DB) createEntityTable(name, textColumn string) (*EntityTable, error) {
	schema, err := relation.NewSchema([]relation.Column{
		{Name: "id", Type: relation.TInt64},
		{Name: textColumn, Type: relation.TString},
	}, "id")
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tbl, err := db.rel.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	et := &EntityTable{db: db, tbl: tbl, textCol: 1}
	db.tables[name] = et
	if err := db.saveMeta(); err != nil {
		return nil, err
	}
	return et, db.shipMetaLocked()
}

// Name returns the table name.
func (t *EntityTable) Name() string { return t.tbl.Name() }

// TextColumn returns the name of the table's text column.
func (t *EntityTable) TextColumn() string {
	return t.tbl.Schema().Cols[t.textCol].Name
}

// InsertText adds an entity row. Views declared over this table pick
// it up via triggers; if a view over this table has a maintenance
// engine attached, the insert routes through the engine's write queue
// (synchronously — it returns once applied and visible), so both
// surfaces stay consistent.
func (t *EntityTable) InsertText(id int64, text string) error {
	if err := t.db.writable(); err != nil {
		return err
	}
	if eng := t.db.engineOver(t, nil); eng != nil {
		return eng.Add(id, text)
	}
	return t.tbl.Insert(relation.Tuple{id, text})
}

// Len returns the number of entities.
func (t *EntityTable) Len() int { return t.tbl.Len() }

// Text returns the text of entity id.
func (t *EntityTable) Text(id int64) (string, error) {
	tup, err := t.tbl.Get(id)
	if err != nil {
		return "", err
	}
	return tup[t.textCol].(string), nil
}

// EntityTableByName returns a previously created entity table.
func (db *DB) EntityTableByName(name string) (*EntityTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("hazy: no entity table %q", name)
	}
	return t, nil
}

// ExampleTableByName returns a previously created examples table.
func (db *DB) ExampleTableByName(name string) (*ExampleTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.examples[name]
	if !ok {
		return nil, fmt.Errorf("hazy: no example table %q", name)
	}
	return t, nil
}

// Scan iterates all (id, text) rows.
func (t *EntityTable) Scan(fn func(id int64, text string) error) error {
	return t.tbl.Scan(func(tup relation.Tuple) error {
		return fn(tup[0].(int64), tup[t.textCol].(string))
	})
}

// ExampleTable is a relational table of (id BIGINT, label BIGINT)
// training examples; inserting into it drives view maintenance, like
// the paper's SQL INSERTs monitored by triggers.
type ExampleTable struct {
	db  *DB
	tbl *relation.Table
}

// CreateExampleTable creates an examples table with columns
// (id, label) and records it in the catalog manifest; like every DDL
// it also rides the write-ahead log for replicas.
func (db *DB) CreateExampleTable(name string) (*ExampleTable, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	et, err := db.createExampleTable(name)
	if err != nil {
		return nil, err
	}
	return et, db.rel.CommitLog()
}

// createExampleTable is CreateExampleTable without the read-only
// guard and the commit barrier — the replica applier's reconcile path.
func (db *DB) createExampleTable(name string) (*ExampleTable, error) {
	schema, err := relation.NewSchema([]relation.Column{
		{Name: "id", Type: relation.TInt64},
		{Name: "label", Type: relation.TInt64},
	}, "id")
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tbl, err := db.rel.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	et := &ExampleTable{db: db, tbl: tbl}
	db.examples[name] = et
	if err := db.saveMeta(); err != nil {
		return nil, err
	}
	return et, db.shipMetaLocked()
}

// Name returns the table name.
func (t *ExampleTable) Name() string { return t.tbl.Name() }

// InsertExample adds a training example (label must be ±1). Triggers
// fan it out to every view declared over this table; if a view over
// this table has a maintenance engine attached, the insert routes
// through the engine's write queue (synchronously).
func (t *ExampleTable) InsertExample(id int64, label int) error {
	if err := t.db.writable(); err != nil {
		return err
	}
	if label != 1 && label != -1 {
		return fmt.Errorf("hazy: label must be ±1, got %d", label)
	}
	if eng := t.db.engineOver(nil, t); eng != nil {
		return eng.Train(id, label)
	}
	return t.tbl.Insert(relation.Tuple{id, int64(label)})
}

// Len returns the number of training examples inserted.
func (t *ExampleTable) Len() int { return t.tbl.Len() }

// DeleteExample removes a training example; every view over this
// table retrains its model from scratch (§2.2 footnote). It is
// rejected while an engine manages a view over this table — the
// engine's write queue has no retrain op, so a silent delete would
// leave the served view stale. Detach the engine first.
func (t *ExampleTable) DeleteExample(id int64) error {
	if err := t.db.writable(); err != nil {
		return err
	}
	if t.db.engineOver(nil, t) != nil {
		return fmt.Errorf("hazy: %s is engine-managed; detach the engine before deleting examples", t.Name())
	}
	return t.tbl.Delete(id)
}

// RelabelExample changes an example's label; every view over this
// table retrains its model from scratch. Like DeleteExample it is
// rejected while the table is engine-managed.
func (t *ExampleTable) RelabelExample(id int64, label int) error {
	if err := t.db.writable(); err != nil {
		return err
	}
	if label != 1 && label != -1 {
		return fmt.Errorf("hazy: label must be ±1, got %d", label)
	}
	if t.db.engineOver(nil, t) != nil {
		return fmt.Errorf("hazy: %s is engine-managed; detach the engine before relabeling examples", t.Name())
	}
	return t.tbl.Update(relation.Tuple{id, int64(label)})
}

// Scan iterates all (id, label) rows.
func (t *ExampleTable) Scan(fn func(id int64, label int) error) error {
	return t.tbl.Scan(func(tup relation.Tuple) error {
		return fn(tup[0].(int64), int(tup[1].(int64)))
	})
}

// ViewSpec declares a classification view (paper §2.1's CREATE
// CLASSIFICATION VIEW).
type ViewSpec struct {
	// Name of the view.
	Name string
	// Entities names the entity table (created with
	// CreateEntityTable).
	Entities string
	// Examples names the training-examples table (created with
	// CreateExampleTable).
	Examples string
	// FeatureFunction is a registered feature-function name
	// (default tf_bag_of_words).
	FeatureFunction string
	// Method is "svm", "logistic", or "ridge" (the USING clause).
	// Empty means automatic selection (§2.1's leave-one-out model
	// selection): when enough warm examples are present at
	// declaration time the method is chosen by k-fold holdout over
	// them, otherwise it defaults to SVM.
	Method string
	// Arch, Strategy, Mode select the maintenance machinery; the
	// defaults are the paper's best configuration (Hazy-MM, eager).
	Arch     core.Arch
	Strategy core.Strategy
	Mode     core.Mode
	// Alpha is the Skiing parameter (default 1).
	Alpha float64
	// BufferFrac sizes the hybrid buffer (default 1%).
	BufferFrac float64
	// PoolPages sizes the on-disk buffer pool (default 512).
	PoolPages int
	// Partitions hash-partitions the view into this many independently
	// maintained stripes — per-stripe eps clustering, watermarks, and
	// Skiing over one shared model — so reorganization, batch
	// maintenance, and rescans run in parallel across a worker pool
	// (the SQL clause PARTITIONS n). 0 falls back to the database's
	// DefaultPartitions, then to unstriped. Every architecture
	// stripes — main-memory segments, per-stripe on-disk B+-tree
	// generations, or the hybrid's disk-plus-ε-map — but striping
	// requires the Hazy strategy (NAIVE keeps no eps clustering for
	// the stripes to maintain).
	Partitions int
}

// autoSelectMin is the minimum number of warm examples before the
// automatic model selection runs; below it the SVM default stands
// (there is nothing meaningful to cross-validate).
const autoSelectMin = 12

// ClassView is a maintained classification view.
type ClassView struct {
	name   string
	spec   ViewSpec // the (defaulted) declaration, as persisted
	method string   // resolved method ("svm" | "logistic" | "ridge")
	view   core.View
	ff     feature.Func
	ents   *EntityTable
	exs    *ExampleTable
	// eng is the attached maintenance engine, nil while unmanaged. While
	// it is set the table triggers skip this view (the engine applies
	// the maintenance itself, batched, on the maintenance pool) and
	// inserts through the tables route to it.
	eng atomic.Pointer[engine.Engine]
	// pub is the view's one published version. An attached engine
	// stores it after every batch; a replica's applier after every
	// commit. Reads come lock-free from here whenever an engine is
	// attached or the database is a replica (Session.Bind) — instead of
	// the live structure the engine or applier is mutating. Nil while
	// neither owns the view.
	pub atomic.Pointer[core.Snapshot]
}

// CreateClassificationView declares and materializes a view: the
// feature function makes its corpus pass over the entity table, the
// core view is built and clustered, triggers are installed on both
// tables so subsequent SQL inserts maintain the view, and the
// declaration is recorded in the catalog manifest so Open re-declares
// it after a restart.
func (db *DB) CreateClassificationView(spec ViewSpec) (*ClassView, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	cv, err := db.createClassificationView(spec, true)
	if err != nil {
		return nil, err
	}
	return cv, db.rel.CommitLog()
}

func (db *DB) createClassificationView(spec ViewSpec, persist bool) (*ClassView, error) {
	// Reserve the name and resolve the tables under the catalog lock,
	// then build OUTSIDE it: the corpus pass, warm training, and
	// clustering can take seconds on a large table, and holding the
	// write lock that long would stall every concurrent Bind/resolve
	// (the serving read path). The tables' own locks make the build's
	// scans safe against concurrent mutations.
	db.mu.Lock()
	if _, dup := db.views[spec.Name]; dup || db.creating[spec.Name] {
		db.mu.Unlock()
		return nil, fmt.Errorf("hazy: view %q already exists", spec.Name)
	}
	et, ok := db.tables[spec.Entities]
	if !ok {
		db.mu.Unlock()
		return nil, fmt.Errorf("hazy: no entity table %q", spec.Entities)
	}
	xt, ok := db.examples[spec.Examples]
	if !ok {
		db.mu.Unlock()
		return nil, fmt.Errorf("hazy: no example table %q", spec.Examples)
	}
	db.creating[spec.Name] = true
	db.mu.Unlock()

	cv, err := db.buildView(spec, et, xt)

	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.creating, spec.Name)
	if err != nil {
		return nil, err
	}
	db.views[spec.Name] = cv
	db.specs[spec.Name] = cv.spec
	if persist {
		if err := db.saveMeta(); err != nil {
			return nil, err
		}
		if err := db.shipMetaLocked(); err != nil {
			return nil, err
		}
	}
	return cv, nil
}

// buildView materializes a view and installs its triggers; it takes
// no catalog locks.
func (db *DB) buildView(spec ViewSpec, et *EntityTable, xt *ExampleTable) (*ClassView, error) {
	// The name names the view's directory, cleared below: it must stay
	// a single path element under db.dir.
	if strings.ContainsAny(spec.Name, `/\`) {
		return nil, fmt.Errorf("hazy: view name %q must not contain a path separator", spec.Name)
	}
	if spec.FeatureFunction == "" {
		spec.FeatureFunction = "tf_bag_of_words"
	}
	ff, err := db.registry.New(spec.FeatureFunction)
	if err != nil {
		return nil, err
	}
	if spec.PoolPages == 0 {
		spec.PoolPages = 512
	}
	// Striping: an unset PARTITIONS picks up the database default, but
	// only where striping applies; the resolved count persists with
	// the declaration so reopens are stable.
	if spec.Partitions == 0 && spec.Strategy == core.HazyStrategy {
		spec.Partitions = db.defaultParts
	}
	if spec.Partitions > 1 && spec.Strategy != core.HazyStrategy {
		return nil, fmt.Errorf("hazy: view %q: PARTITIONS %d requires STRATEGY HAZY (the NAIVE strategy keeps no eps clustering for the stripes to maintain)", spec.Name, spec.Partitions)
	}

	// Examples already in the table (e.g. after a restart) warm-train
	// the model before the view is first materialized; the view is a
	// pure function of entities + examples (§3.5.1). Each takes the
	// vector the corpus pass below builds for its entity, so every
	// entity is featurized once.
	var warm []learn.Example
	slot := make(map[int64]int, xt.Len()) // example id → its index in warm
	err = xt.tbl.Scan(func(tup relation.Tuple) error {
		id := tup[0].(int64)
		slot[id] = len(warm)
		warm = append(warm, learn.Example{ID: id, Label: int(tup[1].(int64))})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Corpus pass: compute statistics, then feature vectors.
	var corpus []string
	var ids []int64
	err = et.tbl.Scan(func(tup relation.Tuple) error {
		ids = append(ids, tup[0].(int64))
		corpus = append(corpus, tup[et.textCol].(string))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ff.ComputeStats(corpus)
	entities := make([]core.Entity, len(ids))
	for i, id := range ids {
		entities[i] = core.Entity{ID: id, F: ff.ComputeFeature(corpus[i])}
		if k, ok := slot[id]; ok {
			warm[k].F = entities[i].F
			delete(slot, id)
		}
	}
	for _, ex := range warm {
		if _, missing := slot[ex.ID]; missing {
			return nil, fmt.Errorf("hazy: example references unknown entity %d", ex.ID)
		}
	}

	// USING clause absent: automatic model selection (§2.1) by k-fold
	// holdout over the warm examples, when there are enough of them.
	// The selection is deterministic (fixed fold shuffle) so a reopen
	// over the same examples re-declares the same model.
	method := spec.Method
	if method == "" {
		method = learn.MethodSVM
		if len(warm) >= autoSelectMin {
			method = learn.SelectMethod(warm, 5, 3, rand.New(rand.NewSource(1)))
		}
	}

	opts := core.Options{
		Mode:        spec.Mode,
		Alpha:       spec.Alpha,
		BufferFrac:  spec.BufferFrac,
		Partitions:  spec.Partitions,
		Norm:        math.Inf(1), // text: ℓ1-normalized features, p=∞
		SGD:         learn.SGDConfig{Loss: learn.LossFor(method)},
		Warm:        warm,
		Metrics:     db.metrics,
		MetricsName: spec.Name,
		Pool:        db.pool,
	}
	// The view is recomputed from the tables at every build (§3.5.1), so
	// nothing under its directory outlives a process: clear whatever an
	// earlier one left there before the on-disk layouts reuse generation
	// file names.
	dir := filepath.Join(db.dir, "view-"+spec.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("hazy: view %q: %w", spec.Name, err)
	}
	view, err := core.New(spec.Arch, spec.Strategy, dir, spec.PoolPages, entities, opts)
	if err != nil {
		return nil, err
	}
	cv := &ClassView{name: spec.Name, spec: spec, method: method, view: view, ff: ff, ents: et, exs: xt}

	// Trigger: new entities are featurized and classified on arrival
	// (type-1 dynamic data).
	et.tbl.AddTrigger(func(ev relation.TriggerEvent, old, new relation.Tuple) error {
		if ev != relation.AfterInsert || cv.eng.Load() != nil {
			return nil
		}
		text := new[et.textCol].(string)
		ff.ComputeStatsInc(text)
		return view.Insert(core.Entity{ID: new[0].(int64), F: ff.ComputeFeature(text)})
	})
	// Trigger: new training examples retrain the model and maintain
	// the view (type-2 dynamic data, the paper's focus). Deleting or
	// relabeling an example retrains from scratch (§2.2 footnote).
	allExamples := func() ([]learn.Example, error) {
		var out []learn.Example
		err := xt.Scan(func(id int64, label int) error {
			text, err := et.Text(id)
			if err != nil {
				return fmt.Errorf("hazy: example references unknown entity %d", id)
			}
			out = append(out, learn.Example{ID: id, F: ff.ComputeFeature(text), Label: label})
			return nil
		})
		return out, err
	}
	xt.tbl.AddTrigger(func(ev relation.TriggerEvent, old, new relation.Tuple) error {
		if cv.eng.Load() != nil {
			return nil
		}
		switch ev {
		case relation.AfterInsert:
			id := new[0].(int64)
			label := int(new[1].(int64))
			text, err := et.Text(id)
			if err != nil {
				return fmt.Errorf("hazy: example references unknown entity %d", id)
			}
			return view.Update(ff.ComputeFeature(text), label)
		default: // AfterDelete, AfterUpdate: retrain from scratch
			examples, err := allExamples()
			if err != nil {
				return err
			}
			return view.Retrain(examples)
		}
	})

	return cv, nil
}

// View returns a previously created view.
func (db *DB) View(name string) (*ClassView, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.views[name]
	if !ok {
		return nil, fmt.Errorf("hazy: no view %q", name)
	}
	return v, nil
}

// Views lists the declared view names, sorted.
func (db *DB) Views() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedKeys(db.views)
}

// Name returns the view's name.
func (v *ClassView) Name() string { return v.name }

// Method returns the resolved training method ("svm", "logistic", or
// "ridge") — the USING clause, or the automatic selection's choice.
func (v *ClassView) Method() string { return v.method }

// Stats exposes maintenance counters.
func (v *ClassView) Stats() Stats { return v.view.Stats() }

// Core returns the underlying maintenance view for advanced use
// (benchmarks, experiments).
func (v *ClassView) Core() core.View { return v.view }

// Entities returns the entity table the view is declared over.
func (v *ClassView) Entities() *EntityTable { return v.ents }

// Examples returns the examples table the view is declared over.
func (v *ClassView) Examples() *ExampleTable { return v.exs }

// NewVectorView builds a maintained view directly over feature
// vectors, bypassing the relational layer — the entry point used by
// the benchmark harness and numeric applications.
func NewVectorView(arch core.Arch, strategy core.Strategy, dir string, poolPages int, entities []Entity, opts core.Options) (core.View, error) {
	return core.New(arch, strategy, dir, poolPages, entities, opts)
}

// Options re-exports the core view options.
type Options = core.Options

// EngineOptions sizes a maintenance engine's write queue.
type EngineOptions struct {
	// QueueSize bounds the update queue; writers block when it is full
	// (backpressure). Default 1024.
	QueueSize int
	// MaxBatch caps how many queued ops one maintenance step drains
	// and group-applies. Default 256.
	MaxBatch int
}

// AttachEngine wraps the named view with a concurrent maintenance
// engine: TRAIN and ADD flow through a bounded queue drained on the
// catalog's maintenance pool (group-applied in batches), while reads
// are answered lock-free from the view's published version, which the
// engine republishes after every batch. While attached the view's
// table triggers are suspended for this view, and inserts through the
// table or Session APIs route through the engine automatically.
//
// Each view has at most one engine, and two attached engines may not
// share an entity or examples table (the mutation routing would be
// ambiguous). An UNmanaged view may share tables with an engined one;
// its trigger maintenance then runs on the engine's goroutine, so
// serve such a view only behind the same serialization as its writes
// (the server's statement mutex does not cover them — prefer
// disjoint tables per engined view, as the constraint suggests).
// DetachEngine — or DB.Close — drains the queue and re-enables the
// triggers. Requires a snapshot-capable view: every Hazy view (any
// architecture) and the naive main-memory view; the naive on-disk
// view is rejected.
func (db *DB) AttachEngine(view string, opts EngineOptions) (*engine.Engine, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cv, ok := db.views[view]
	if !ok {
		return nil, fmt.Errorf("hazy: no view %q", view)
	}
	if _, ok := cv.view.(core.Snapshotter); !ok {
		return nil, fmt.Errorf("hazy: view %q (%T) does not support snapshots, which the engine requires", cv.name, cv.view)
	}
	// A view shares its own tables, so this one scan also rejects a
	// second engine on the view.
	for name, other := range db.views {
		if other.eng.Load() != nil && (other.ents == cv.ents || other.exs == cv.exs) {
			return nil, fmt.Errorf("hazy: view %q shares a table with engine-managed view %q", view, name)
		}
	}
	eng, err := engine.New(&viewBackend{db: db, cv: cv}, engine.Options{
		QueueSize: opts.QueueSize,
		MaxBatch:  opts.MaxBatch,
		Metrics:   db.metrics,
		Name:      view,
		Pool:      db.pool,
	})
	if err != nil {
		return nil, err
	}
	cv.eng.Store(eng)
	return eng, nil
}

// DetachEngine closes the named view's engine: the queue drains, the
// final version is published, and the view returns to unmanaged
// operation with its triggers resumed. It returns the engine's close
// error (including any unreported async write failure).
func (db *DB) DetachEngine(view string) error {
	eng := db.AttachedEngine(view)
	if eng == nil {
		return fmt.Errorf("hazy: view %q has no engine attached", view)
	}
	return eng.Close()
}

// AttachedEngine returns the engine currently attached to the named
// view, or nil.
func (db *DB) AttachedEngine(view string) *engine.Engine {
	cv, err := db.View(view)
	if err != nil {
		return nil
	}
	return cv.eng.Load()
}

// engineOver returns the engine managing a view over the entity table
// ents or the examples table exs, if any; AttachEngine lets at most
// one engine manage a table.
func (db *DB) engineOver(ents *EntityTable, exs *ExampleTable) *engine.Engine {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, cv := range db.views {
		if cv.ents == ents || cv.exs == exs {
			if eng := cv.eng.Load(); eng != nil {
				return eng
			}
		}
	}
	return nil
}

// viewBackend adapts a ClassView and its tables to engine.Backend.
// Every method runs on the engine's single maintenance goroutine.
type viewBackend struct {
	db *DB
	cv *ClassView
}

func (b *viewBackend) ApplyTrainBatch(ops []engine.TrainOp) []error {
	cv := b.cv
	errs := make([]error, len(ops))
	exs := make([]learn.Example, 0, len(ops))
	for i, op := range ops {
		if op.Label != 1 && op.Label != -1 {
			errs[i] = fmt.Errorf("hazy: label must be ±1, got %d", op.Label)
			continue
		}
		text, err := cv.ents.Text(op.ID)
		if err != nil {
			errs[i] = fmt.Errorf("hazy: example references unknown entity %d", op.ID)
			continue
		}
		// The logged insert first (it can reject duplicates); the
		// view trigger is suspended, so no double maintenance. The
		// WAL commit is deferred to the engine's per-batch Commit —
		// one fsync per applied batch, not per row.
		if err := cv.exs.tbl.InsertDeferred(relation.Tuple{op.ID, int64(op.Label)}); err != nil {
			errs[i] = err
			continue
		}
		exs = append(exs, learn.Example{ID: op.ID, F: cv.ff.ComputeFeature(text), Label: op.Label})
	}
	if len(exs) > 0 {
		if err := core.ApplyBatch(cv.view, exs); err != nil {
			// Every op in the batch is NACKed; the examples were
			// already durably inserted, so delete them back out —
			// each delete is itself logged, so recovery nets to the
			// rows absent, matching what the clients were told.
			for _, ex := range exs {
				_ = cv.exs.tbl.Delete(ex.ID) //nolint:errcheck — best effort under a failing view
			}
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		}
	}
	return errs
}

// insertBatcher is the view-side scatter of a batched ADD run: the
// striped layout applies each stripe's share in parallel.
type insertBatcher interface {
	InsertBatch(entities []core.Entity) []error
}

// ApplyAddBatch group-applies a run of entity inserts: every row is
// durably logged and featurized in arrival order, then the view
// absorbs the whole run in one call — parallel across stripes when
// the layout supports it. Error slots are positional. A failed view
// insert deletes its already logged row back out (the delete is itself
// logged), so tables, view and recovery all agree the ADD did not
// happen; the corpus-stats increment is not unwound, since feature
// stats are an approximation either way.
func (b *viewBackend) ApplyAddBatch(ops []engine.AddOp) []error {
	cv := b.cv
	errs := make([]error, len(ops))
	ents := make([]core.Entity, 0, len(ops))
	idx := make([]int, 0, len(ops)) // ents position → ops position
	for i, op := range ops {
		if err := cv.ents.tbl.InsertDeferred(relation.Tuple{op.ID, op.Text}); err != nil {
			errs[i] = err
			continue
		}
		cv.ff.ComputeStatsInc(op.Text)
		ents = append(ents, core.Entity{ID: op.ID, F: cv.ff.ComputeFeature(op.Text)})
		idx = append(idx, i)
	}
	if len(ents) == 0 {
		return errs
	}
	insert := func(k int) error { return cv.view.Insert(ents[k]) }
	if ib, ok := cv.view.(insertBatcher); ok {
		batchErrs := ib.InsertBatch(ents)
		insert = func(k int) error { return batchErrs[k] }
	}
	for k := range ents {
		if err := insert(k); err != nil {
			_ = cv.ents.tbl.Delete(ents[k].ID) //nolint:errcheck — best effort under a failing view
			errs[idx[k]] = err
		}
	}
	return errs
}

// Commit is the engine's group-commit barrier: one WAL fsync (in
// durable mode) covers every row the batch logged, and runs before
// any waiter is acknowledged.
func (b *viewBackend) Commit() error {
	return b.db.rel.CommitLog()
}

// Publish snapshots the view into its published-version slot.
func (b *viewBackend) Publish() error {
	snap, err := b.cv.view.(core.Snapshotter).Snapshot()
	if err != nil {
		return err
	}
	b.cv.pub.Store(snap)
	return nil
}

// Detach is called by Engine.Close after the final drain. Clearing eng
// resumes the triggers and stops routing inserts to the engine in one
// store, so a concurrent insert either reaches the closed engine (an
// explicit ErrClosed) or runs with live triggers. Clearing pub after
// it returns reads to the live structure. Afterwards a new engine may
// be attached.
func (b *viewBackend) Detach() {
	b.cv.eng.Store(nil)
	b.cv.pub.Store(nil)
}
