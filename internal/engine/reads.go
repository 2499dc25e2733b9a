package engine

import (
	"sync/atomic"

	"hazy/internal/core"
)

// snapHolder is the atomically swapped published snapshot plus its
// version counter. Readers only ever load; the maintenance goroutine
// only ever stores.
type snapHolder struct {
	p       atomic.Pointer[core.Snapshot]
	version atomic.Uint64
}

func (e *Engine) publish(s *core.Snapshot) {
	e.snap.p.Store(s)
	e.snap.version.Add(1)
}

// Snapshot returns the currently published snapshot. It is never nil
// and is safe to read from any goroutine; retain it to answer several
// questions from one consistent state.
func (e *Engine) Snapshot() *core.Snapshot { return e.snap.p.Load() }
