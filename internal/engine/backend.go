package engine

import "hazy/internal/core"

// TrainOp is one queued training example, addressed by entity id —
// the engine-side form of an INSERT into the examples table.
type TrainOp struct {
	ID    int64
	Label int // +1 or −1
}

// Backend adapts a concrete view and its backing tables to the
// engine. All Backend methods are invoked only from the engine's
// single maintenance goroutine, so implementations need no internal
// locking for the view they mutate.
type Backend interface {
	// ApplyTrainBatch durably inserts the examples and folds them
	// into the model with one group-applied maintenance step (one
	// reorganize-or-sweep decision per batch, not per example). It
	// returns one error slot per op, positionally: a non-nil element
	// rejects that op (unknown entity, duplicate example, bad label)
	// without failing the rest of the batch.
	ApplyTrainBatch(ops []TrainOp) []error
	// ApplyAddBatch durably inserts a run of new entities and
	// classifies each under the current model (type-1 dynamic data);
	// a partition-striped view scatters the run to its stripes and
	// applies each stripe's share in parallel. Like ApplyTrainBatch it
	// returns one error slot per op, positionally.
	ApplyAddBatch(ops []AddOp) []error
	// Snapshot exports an immutable read snapshot of the view.
	Snapshot() (*core.Snapshot, error)
}

// AddOp is one queued entity insert — the engine-side form of an
// INSERT into the entities table.
type AddOp struct {
	ID   int64
	Text string
}

// Committer is implemented by backends whose durable writes ride a
// write-ahead log with deferred commits: the engine calls Commit once
// after applying each batch — before acknowledging any waiter — so a
// whole batch pays one fsync. A Commit error fails every op in the
// batch that had not already failed.
type Committer interface {
	Commit() error
}
