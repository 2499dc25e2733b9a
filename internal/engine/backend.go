package engine

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
	// Commit is the group-commit barrier: the engine calls it once
	// after applying a batch that mutated the view, before
	// acknowledging any waiter, so a whole batch pays one fsync. An
	// error fails every op in the batch that had not already failed.
	Commit() error
	// Publish exports an immutable version of the view and makes it
	// the one readers are served from. The engine calls it once when
	// it starts and once after every batch that mutated the view.
	Publish() error
	// Detach runs once, after Close has drained the queue: the view
	// leaves the engine's management and resumes unmanaged operation.
	Detach()
}

// AddOp is one queued entity insert — the engine-side form of an
// INSERT into the entities table.
type AddOp struct {
	ID   int64
	Text string
}
