package relation

import (
	"fmt"
	"sync"

	"hazy/internal/storage"
)

// TriggerEvent says which mutation fired a trigger.
type TriggerEvent int

// Trigger events.
const (
	AfterInsert TriggerEvent = iota
	AfterUpdate
	AfterDelete
)

// Trigger is invoked after a mutation commits to the heap. For
// AfterUpdate the old tuple is passed as old; otherwise old is nil.
// A trigger error aborts the statement (the mutation itself is not
// rolled back — Hazy's triggers only propagate, they do not veto).
type Trigger func(ev TriggerEvent, old, new Tuple) error

// Table is a heap-backed relation with a hash primary-key index and
// statement-level triggers.
//
// Heap and index access is guarded by an internal RWMutex, so point
// reads and scans are safe concurrently with mutations — in
// particular with an attached maintenance engine's goroutine
// inserting durable rows while another session scans the table over
// SQL. Triggers fire AFTER the row lock is released (they may scan
// this very table, e.g. the retrain-from-scratch path), so trigger
// bodies and the view maintenance they perform still need the
// caller-level serialization they always had.
type Table struct {
	name   string
	schema Schema
	// db is the owning catalog, carrying the write-ahead log every
	// mutation appends to before touching the heap; nil for
	// standalone tables built with NewTable (unlogged).
	db *DB

	mu      sync.RWMutex // guards heap, pk, trigger
	heap    *storage.HeapFile
	pk      map[int64]storage.RID
	trigger []Trigger
}

// NewTable creates an empty table over the given heap.
func NewTable(name string, schema Schema, heap *storage.HeapFile) *Table {
	return &Table{
		name:   name,
		schema: schema,
		heap:   heap,
		pk:     make(map[int64]storage.RID),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pk)
}

// AddTrigger registers fn to run after mutations.
func (t *Table) AddTrigger(fn Trigger) {
	t.mu.Lock()
	t.trigger = append(t.trigger, fn)
	t.mu.Unlock()
}

func (t *Table) fire(ev TriggerEvent, old, new Tuple) error {
	t.mu.RLock()
	triggers := t.trigger
	t.mu.RUnlock()
	for _, fn := range triggers {
		if err := fn(ev, old, new); err != nil {
			return fmt.Errorf("relation: trigger on %s: %w", t.name, err)
		}
	}
	return nil
}

// Insert adds tup, rejecting duplicate keys, then fires AfterInsert.
// The row is logged to the WAL before it touches the heap and the log
// is committed (one fsync in durable mode) before triggers fire.
func (t *Table) Insert(tup Tuple) error { return t.insert(tup, true) }

// InsertDeferred is Insert without the per-statement log commit: the
// row is logged and applied, but the caller owns the commit barrier
// (DB.CommitLog) and must invoke it before acknowledging the write.
// The maintenance engine uses it to pay one fsync per applied batch.
func (t *Table) InsertDeferred(tup Tuple) error { return t.insert(tup, false) }

func (t *Table) insert(tup Tuple, commit bool) error {
	if err := checkTypes(t.schema, tup); err != nil {
		return err
	}
	key := tup.Key(t.schema)
	rec, err := EncodeTuple(t.schema, tup)
	if err != nil {
		return err
	}
	// Reject anything the heap would deterministically refuse BEFORE
	// logging: a logged record that fails the same way on every redo
	// would make the database unopenable.
	if len(rec) > storage.MaxHeapRecord {
		return fmt.Errorf("relation: record of %d bytes exceeds heap limit %d in %s", len(rec), storage.MaxHeapRecord, t.name)
	}
	unlock := t.lockMutation()
	t.mu.Lock()
	if _, dup := t.pk[key]; dup {
		t.mu.Unlock()
		unlock()
		return fmt.Errorf("relation: duplicate key %d in %s", key, t.name)
	}
	if err := t.logMutation(walInsert, rec); err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	rid, err := t.heap.Insert(rec)
	if err != nil {
		// The insert is already logged; neutralize it so recovery
		// never replays a statement the client saw fail.
		t.compensate(walDelete, deleteBody(key))
		t.mu.Unlock()
		unlock()
		return err
	}
	t.pk[key] = rid
	t.mu.Unlock()
	unlock()
	if commit {
		if err := t.commitWAL(); err != nil {
			return err
		}
	}
	return t.fire(AfterInsert, nil, tup)
}

// Get returns the tuple with the given key.
func (t *Table) Get(key int64) (Tuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rid, ok := t.pk[key]
	if !ok {
		return nil, fmt.Errorf("relation: no key %d in %s", key, t.name)
	}
	return t.rowAt(rid)
}

// rowAt decodes the stored row at rid. Callers hold t.mu.
func (t *Table) rowAt(rid storage.RID) (Tuple, error) {
	rec, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return DecodeTuple(t.schema, rec)
}

// Has reports whether key exists.
func (t *Table) Has(key int64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.pk[key]
	return ok
}

// Update replaces the tuple with tup's key, firing AfterUpdate. Like
// Insert, the new image is logged before the heap changes and the log
// commits before triggers fire.
func (t *Table) Update(tup Tuple) error {
	if err := checkTypes(t.schema, tup); err != nil {
		return err
	}
	key := tup.Key(t.schema)
	rec, err := EncodeTuple(t.schema, tup)
	if err != nil {
		return err
	}
	if len(rec) > storage.MaxHeapRecord {
		return fmt.Errorf("relation: record of %d bytes exceeds heap limit %d in %s", len(rec), storage.MaxHeapRecord, t.name)
	}
	unlock := t.lockMutation()
	t.mu.Lock()
	rid, ok := t.pk[key]
	if !ok {
		t.mu.Unlock()
		unlock()
		return fmt.Errorf("relation: update of missing key %d in %s", key, t.name)
	}
	oldRec, err := t.heap.Get(rid)
	if err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	old, err := DecodeTuple(t.schema, oldRec)
	if err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	if err := t.logMutation(walUpdate, rec); err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	nrid, err := t.heap.Update(rid, rec)
	if err != nil {
		// Logged but not applied: log the old image back so recovery
		// lands on the pre-statement row.
		t.compensate(walUpdate, oldRec)
		t.mu.Unlock()
		unlock()
		return err
	}
	t.pk[key] = nrid
	t.mu.Unlock()
	unlock()
	if err := t.commitWAL(); err != nil {
		return err
	}
	return t.fire(AfterUpdate, old, tup)
}

// Delete removes the tuple with key, firing AfterDelete.
func (t *Table) Delete(key int64) error {
	unlock := t.lockMutation()
	t.mu.Lock()
	rid, ok := t.pk[key]
	if !ok {
		t.mu.Unlock()
		unlock()
		return fmt.Errorf("relation: delete of missing key %d in %s", key, t.name)
	}
	rec, err := t.heap.Get(rid)
	if err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	old, err := DecodeTuple(t.schema, rec)
	if err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	if err := t.logMutation(walDelete, deleteBody(key)); err != nil {
		t.mu.Unlock()
		unlock()
		return err
	}
	if err := t.heap.Delete(rid); err != nil {
		// Logged but not applied: re-log the surviving row so replay's
		// delete-then-insert nets out to the row still being there.
		t.compensate(walInsert, rec)
		t.mu.Unlock()
		unlock()
		return err
	}
	delete(t.pk, key)
	t.mu.Unlock()
	unlock()
	if err := t.commitWAL(); err != nil {
		return err
	}
	return t.fire(AfterDelete, old, nil)
}

// HeapPages exposes the backing heap's page list (for the catalog
// manifest).
func (t *Table) HeapPages() []storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Pages()
}

// recover re-attaches the table to previously written heap pages and
// rebuilds the primary-key hash index by scanning.
func (t *Table) recover(pages []storage.PageID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.heap.SetPages(pages); err != nil {
		return err
	}
	return t.heap.Scan(func(rid storage.RID, rec []byte) error {
		tup, err := DecodeTuple(t.schema, rec)
		if err != nil {
			return err
		}
		t.pk[tup.Key(t.schema)] = rid
		return nil
	})
}

// Scan iterates all tuples in heap order, holding the table's read
// lock for the duration: the callback must not mutate this table.
func (t *Table) Scan(fn func(Tuple) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Scan(func(_ storage.RID, rec []byte) error {
		tup, err := DecodeTuple(t.schema, rec)
		if err != nil {
			return err
		}
		return fn(tup)
	})
}
