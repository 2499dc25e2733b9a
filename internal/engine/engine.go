// Package engine is the concurrent maintenance engine: it serves a
// classification view to many goroutines at once by splitting the
// paper's read and write paths onto different synchronization
// machinery.
//
// Writes (TRAIN and ADD) enter a bounded queue and are drained one
// batch at a time by the shared maintenance pool (internal/sched):
// the engine is a *task source*, not a goroutine owner. While the
// queue holds work the source is runnable and the pool runs its
// quanta — each quantum drains up to MaxBatch queued ops and
// group-applies them: every queued example is folded into the model
// (one SGD step and one watermark observation each — both cheap), but
// the expensive maintenance decision — reorganize, or sweep the
// [lw, hw] band — runs once per batch. This amortizes the paper's
// incremental step a second time: Hazy amortizes maintenance across
// the tuples of one update; the engine amortizes it across the
// updates of one batch. When the queue empties the source parks — an
// idle view costs no goroutine and no scheduler state — and the next
// enqueue wakes it. The pool's round-robin quantum discipline is the
// catalog-level fairness contract: a flooded view runs one batch,
// then every other runnable view runs one, so a hot tenant cannot
// starve cold ones. The bounded queue is the admission-control
// mechanism: when maintenance falls behind, producers block in
// Enqueue instead of growing an unbounded backlog.
//
// Reads (LABEL, COUNT, MEMBERS, CLASSIFY, UNCERTAIN) never reach the
// engine. After each applied batch the engine asks its Backend to
// Publish: the backend exports an immutable version of the view and
// stores it where readers find it — the view's one published-version
// slot — so reads answer lock-free from that version, scale across
// cores and are never blocked behind maintenance. The engine itself
// holds no version, only the count of publishes. Freshness is
// batch-granular: a read observes the view as of the last publish.
// Callers that need read-your-writes either use the synchronous write
// calls (which return only after the batch containing the write is
// applied and published) or issue an explicit Flush barrier.
//
// Asynchronous failures are attributed per producer session: every
// async op carries a Token, the first error per token is retained,
// and FlushTok reports only its own token's error — so concurrent
// sessions sharing one engine never collect each other's failures.
// The engine-wide Flush, Drain, and Close sweep up unclaimed errors
// so none are lost when a session disappears without flushing.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hazy/internal/obs"
	"hazy/internal/sched"
)

// ErrClosed is returned by writes enqueued after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// QueueSize bounds the update queue; Enqueue blocks when it is
	// full (backpressure). Default 1024.
	QueueSize int
	// MaxBatch caps how many queued ops one maintenance step drains
	// and group-applies. Default 256.
	MaxBatch int
	// Metrics, when non-nil, registers the engine's serving counters
	// (and queue-depth / snapshot-version gauges) on the shared
	// registry under the label view=Name. A nil registry leaves the
	// counters private to this engine — Stats() works either way.
	Metrics *obs.Registry
	// Name labels this engine's collectors (view=Name).
	Name string
	// Pool is the shared maintenance pool this engine's quanta run
	// on. Nil uses the process-wide default pool. All engines of one
	// catalog share one pool, so total maintenance goroutines stay
	// O(pool size) however many views are attached.
	Pool *sched.Pool
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Pool == nil {
		o.Pool = sched.Default()
	}
	return o
}

type opKind uint8

const (
	opTrain opKind = iota
	opAdd
	opBarrier
	// opClose is the teardown sentinel Close enqueues after flipping
	// closed under the write lock: every producer send happens under
	// the read lock with closed still false, so by the time the
	// sentinel is sent, no later op can ever enter the queue — it is
	// the guaranteed-last op, and processing it retires the source.
	opClose
)

// Token identifies one producer session for asynchronous-error
// attribution: every async op is tagged with a token, the first
// failure is recorded per token, and FlushTok(tok) collects only that
// token's error. The caller allocates tokens; token 0 is the
// engine-wide slot where batch-level failures (a failed publish) are
// recorded, so sessions use nonzero tokens.
type Token uint64

// op is one queued write (or barrier). done is nil for asynchronous
// ops; otherwise it receives the op's outcome after the batch
// containing it has been applied and its snapshot published.
type op struct {
	kind  opKind
	id    int64
	label int
	text  string
	tok   Token
	done  chan error
}

// Engine is one view's write queue and its task source on the shared
// maintenance pool. One Engine serves one view.
type Engine struct {
	be   Backend
	opts Options

	ops        chan op
	task       *sched.Task
	workerDone chan struct{} // closed when the opClose sentinel is processed

	closeMu    sync.RWMutex // guards closed vs. sends on ops
	closed     bool
	detachOnce sync.Once

	asyncMu   sync.Mutex
	asyncErrs map[Token]error // first unreported error per session token

	published atomic.Uint64 // successful Backend.Publish calls
	stats     engineCounters
}

// New registers an engine over be as a task source on the shared
// pool, initially parked. The first version is published
// synchronously so reads work before the first write. No goroutine is
// started: an idle engine costs only its queue.
func New(be Backend, opts Options) (*Engine, error) {
	e := &Engine{
		be:         be,
		opts:       opts.withDefaults(),
		workerDone: make(chan struct{}),
		asyncErrs:  make(map[Token]error),
	}
	e.ops = make(chan op, e.opts.QueueSize)
	e.stats.initCounters(e.opts.Metrics, e.opts.Name)
	lbl := obs.L("view", e.opts.Name)
	e.opts.Metrics.GaugeFunc("hazy_engine_queue_depth",
		"instantaneous bounded-queue occupancy", func() int64 { return int64(len(e.ops)) }, lbl...)
	e.opts.Metrics.GaugeFunc("hazy_engine_snapshot_version",
		"published snapshot version", func() int64 { return int64(e.published.Load()) }, lbl...)
	if err := be.Publish(); err != nil {
		return nil, fmt.Errorf("engine: initial snapshot: %w", err)
	}
	e.published.Add(1)
	e.task = e.opts.Pool.Register(e.quantum)
	e.opts.Metrics.GaugeFunc("hazy_engine_runnable",
		"task-source scheduling state (0 parked, 1 queued, 2 running)",
		func() int64 { return int64(e.task.State()) }, lbl...)
	return e, nil
}

// enqueue places o on the queue, blocking when the queue is full,
// then wakes the task source. The send-then-wake order is the
// no-lost-work contract with the scheduler: by the time Wake runs the
// op is in the queue, so the quantum that Wake guarantees will
// observe it.
func (e *Engine) enqueue(o op) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	// The send may block under RLock; Close waits for the write lock,
	// and the pool keeps draining a non-empty queue (every prior send
	// issued a wake), so blocked senders always complete.
	e.ops <- o
	e.stats.enqueued.Add(1)
	e.task.Wake()
	return nil
}

func (e *Engine) enqueueWait(o op) error {
	o.done = make(chan error, 1)
	if err := e.enqueue(o); err != nil {
		return err
	}
	return <-o.done
}

// Train inserts a training example and returns once it is applied
// and visible to reads (read-your-writes). Concurrent callers'
// examples are group-applied in shared batches.
func (e *Engine) Train(id int64, label int) error {
	return e.enqueueWait(op{kind: opTrain, id: id, label: label})
}

// TrainAsync enqueues a training example tagged with the producer's
// token and returns as soon as it is queued, blocking only for
// backpressure. If it fails, only FlushTok(tok) — or an engine-wide
// Flush, Drain or Close — reports the error (Stats().Errors counts it
// either way).
func (e *Engine) TrainAsync(tok Token, id int64, label int) error {
	return e.enqueue(op{kind: opTrain, id: id, label: label, tok: tok})
}

// Add inserts an entity and returns once it is applied and visible
// to reads.
func (e *Engine) Add(id int64, text string) error {
	return e.enqueueWait(op{kind: opAdd, id: id, text: text})
}

// AddAsync enqueues an entity insert tagged with the producer's
// token, like TrainAsync.
func (e *Engine) AddAsync(tok Token, id int64, text string) error {
	return e.enqueue(op{kind: opAdd, id: id, text: text, tok: tok})
}

// Flush is a barrier: it returns after every op enqueued before it
// has been applied and the covering snapshot published, so a read
// issued after Flush observes all those writes. It also reports (and
// clears) the first unreported error from any async op since the
// previous barrier — engine-wide, across every token. Sessions that
// must not collect each other's failures use FlushTok instead.
func (e *Engine) Flush() error {
	if err := e.enqueueWait(op{kind: opBarrier}); err != nil {
		return err
	}
	return e.takeAnyAsyncErr()
}

// FlushTok is the per-session barrier: the same global ordering
// guarantee as Flush (every previously enqueued op, from any
// producer, is applied and visible), but it reports and clears only
// the error slot of the given token — one session's failed TRAINA/
// ADDA can never surface through another session's flush.
func (e *Engine) FlushTok(tok Token) error {
	if err := e.enqueueWait(op{kind: opBarrier}); err != nil {
		return err
	}
	return e.takeAsyncErr(tok)
}

// maxDrainRounds bounds Drain's chase of concurrently enqueued work.
// Each round is a full Flush barrier, so the guaranteed prefix grows
// by at least one queue's worth per round; eight rounds of a still-
// growing queue means a producer is sustaining load and Drain's
// best-effort chase should yield rather than livelock.
const maxDrainRounds = 8

// Drain flushes until the queue is observed empty, chasing ops other
// goroutines enqueue after Drain started — which a single Flush
// barrier would not cover. The chase is bounded: under sustained
// concurrent enqueue Drain stops after maxDrainRounds rather than
// livelocking, with the guarantee that every op enqueued before the
// final barrier (in particular, everything enqueued before Drain was
// called) has been applied and is visible. Callers that need a truly
// empty queue must stop their producers first — with live producers,
// "empty" is not a reachable fixpoint for any barrier.
func (e *Engine) Drain() error {
	for i := 0; i < maxDrainRounds; i++ {
		if err := e.Flush(); err != nil {
			return err
		}
		if len(e.ops) == 0 {
			return nil
		}
	}
	// Still non-empty: concede the race to the producers, but leave
	// the barrier guarantee intact for everything already queued.
	return e.Flush()
}

// Close stops accepting writes, drains everything already queued,
// publishes the final version, and retires the task source — the
// pool itself keeps running for the other views. The backend's Detach
// then runs once, so the wrapped view can resume unmanaged operation.
// Close is idempotent; it returns every unreported async error.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	already := e.closed
	e.closed = true
	e.closeMu.Unlock()
	if !already {
		// Taking the write lock waited out every in-flight enqueue
		// (they send under the read lock), and closed now turns new
		// ones away, so this sentinel is the last op the queue will
		// ever carry. The send may block if the queue is full; prior
		// wakes keep the pool draining until it fits.
		e.ops <- op{kind: opClose}
		e.task.Wake()
	}
	<-e.workerDone
	e.detachOnce.Do(e.be.Detach)
	return e.takeAllAsyncErrs()
}

// takeAsyncErr reports and clears the first unreported error recorded
// for tok.
func (e *Engine) takeAsyncErr(tok Token) error {
	e.asyncMu.Lock()
	defer e.asyncMu.Unlock()
	err := e.asyncErrs[tok]
	delete(e.asyncErrs, tok)
	return err
}

// takeAnyAsyncErr reports and clears one pending error from any
// token — the engine-wide collection used by Flush and Drain so that
// no failure is lost when sessions vanish without flushing.
func (e *Engine) takeAnyAsyncErr() error {
	e.asyncMu.Lock()
	defer e.asyncMu.Unlock()
	for tok, err := range e.asyncErrs {
		delete(e.asyncErrs, tok)
		return err
	}
	return nil
}

// takeAllAsyncErrs reports and clears every pending error, joined —
// Close's final sweep must not drop any token's failure.
func (e *Engine) takeAllAsyncErrs() error {
	e.asyncMu.Lock()
	defer e.asyncMu.Unlock()
	errs := make([]error, 0, len(e.asyncErrs))
	for tok, err := range e.asyncErrs {
		delete(e.asyncErrs, tok)
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (e *Engine) noteAsyncErr(tok Token, err error) {
	e.stats.errors.Add(1)
	e.asyncMu.Lock()
	if e.asyncErrs[tok] == nil {
		e.asyncErrs[tok] = err
	}
	e.asyncMu.Unlock()
}

// quantum is one scheduling unit on the shared pool: drain one batch,
// group-apply it, publish a fresh version, acknowledge the batch's
// waiters, and report whether more work is already queued (requeue at
// the back of the run queue) or not (park). The pool never runs two
// quanta of one engine concurrently, so everything below is still
// single-threaded per view, exactly like the dedicated goroutine it
// replaces.
func (e *Engine) quantum() (more bool) {
	select {
	case first := <-e.ops:
		batch := e.fill(first)
		e.apply(batch)
		return len(e.ops) > 0
	default:
		return false
	}
}

// fill drains up to MaxBatch−1 further ops that are already queued,
// without blocking: the batch boundary is "whatever has accumulated
// while the previous batch was applied".
func (e *Engine) fill(first op) []op {
	batch := append(make([]op, 0, e.opts.MaxBatch), first)
	for len(batch) < e.opts.MaxBatch {
		select {
		case o := <-e.ops:
			batch = append(batch, o)
		default:
			return batch
		}
	}
	return batch
}

// apply group-applies one drained batch. Consecutive same-kind ops
// fold into single group calls — TRAIN runs into ApplyTrainBatch (one
// maintenance sweep per run), ADD runs into ApplyAddBatch (a striped
// view scatters the run across its stripes in parallel) — while runs
// apply in arrival order, preserving the client-observed op order.
// The version is published once per batch, before any waiter is
// signalled, so a synchronous writer's next read sees its write:
// however many stripes worked in parallel, readers observe exactly one
// publish barrier per batch.
func (e *Engine) apply(batch []op) {
	errs := make([]error, len(batch))
	mutated, perr := e.applyMutations(batch, errs)
	if perr != nil {
		// A maintenance panic fails the whole batch: every write not
		// already carrying its own error — including ones whose group
		// call succeeded before the panic — reports the panic, and no
		// version is published for this batch (the next successful
		// one exposes whatever state survived). Sync waiters unblock
		// with the error; async producers find it at their next
		// flush. Barriers ack clean and surface the error through the
		// usual token slots, so it is reported exactly once.
		for i := range errs {
			if errs[i] == nil && batch[i].kind != opBarrier && batch[i].kind != opClose {
				errs[i] = perr
			}
		}
		mutated = false
	}

	if mutated {
		start := time.Now()
		err := e.be.Publish()
		e.stats.publish.ObserveDuration(time.Since(start))
		if err != nil {
			e.noteAsyncErr(0, fmt.Errorf("engine: snapshot: %w", err))
		} else {
			e.published.Add(1)
		}
	}
	e.stats.observeBatch(len(batch))
	// The whole batch counts as applied before any waiter is released,
	// so a caller whose write has returned never sees it pending.
	e.stats.applied.Add(uint64(len(batch)))
	retired := false
	for i, o := range batch {
		if o.kind == opClose {
			retired = true
		}
		if o.done != nil {
			o.done <- errs[i]
		} else if errs[i] != nil && o.kind != opClose {
			e.noteAsyncErr(o.tok, errs[i])
		}
	}
	if retired {
		close(e.workerDone)
	}
}

// applyMutations runs the batch's group calls and the group commit
// under a recover barrier: a panic out of the backend (a striped
// view's reorganization, say) must not strand the batch's sync
// waiters or kill a shared pool worker. It reports whether the view
// mutated and the recovered panic, if any.
func (e *Engine) applyMutations(batch []op, errs []error) (mutated bool, perr error) {
	defer func() {
		if r := recover(); r != nil {
			e.stats.errors.Add(1)
			perr = fmt.Errorf("engine: maintenance panic: %v", r)
		}
	}()

	var runStart int
	runKind := opBarrier
	flushRun := func(end int) {
		if runStart == end || runKind == opBarrier || runKind == opClose {
			runStart = end
			return
		}
		run := batch[runStart:end]
		switch runKind {
		case opTrain:
			ops := make([]TrainOp, 0, len(run))
			for _, o := range run {
				ops = append(ops, TrainOp{ID: o.id, Label: o.label})
			}
			for i, err := range e.be.ApplyTrainBatch(ops) {
				errs[runStart+i] = err
				if err == nil {
					mutated = true
				}
			}
			e.stats.trains.Add(uint64(len(ops)))
		case opAdd:
			ops := make([]AddOp, 0, len(run))
			for _, o := range run {
				ops = append(ops, AddOp{ID: o.id, Text: o.text})
			}
			for i, err := range e.be.ApplyAddBatch(ops) {
				errs[runStart+i] = err
				if err == nil {
					mutated = true
				}
			}
			e.stats.adds.Add(uint64(len(run)))
		}
		runStart = end
	}
	for i, o := range batch {
		if o.kind != runKind {
			flushRun(i)
			runKind = o.kind
		}
	}
	flushRun(len(batch))

	// Group commit: the batch's logged rows become durable together,
	// before any waiter is signalled — a synchronous writer's ack
	// implies its row survived the crash the log protects against.
	if mutated {
		if err := e.be.Commit(); err != nil {
			for i := range errs {
				if errs[i] == nil && batch[i].kind != opBarrier {
					errs[i] = fmt.Errorf("engine: group commit: %w", err)
				}
			}
		}
	}
	return mutated, nil
}
