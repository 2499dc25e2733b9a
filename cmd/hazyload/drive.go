package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// lat holds one class's latencies from one connection, in nanoseconds.
type lat []int64

// connResult is what one closed-loop connection did inside the
// measured window.
type connResult struct {
	byClass      map[string]lat
	visible      lat     // writes only: send → visible, per write
	elapsed      float64 // seconds from window start to this connection's last completion
	ops          int     // ops completed inside the window (a FLUSH is not an op)
	sent         int     // ops sent, warm-up included
	failed       int     // of sent
	firstFailure string
}

// window is one measured interval: ops sent before start are warm-up.
type window struct {
	start, end time.Time
}

func newWindow(warm, measure time.Duration) window {
	s := time.Now().Add(warm)
	return window{start: s, end: s.Add(measure)}
}

// expectReply reports whether reply is the well-formed answer to s.
// Values are checked after the run (check.go); here a malformed or
// refused reply counts as a failed op.
func expectReply(s stmt, reply string) bool {
	switch s.class {
	case opLabel:
		return reply == "+1" || reply == "-1"
	case opFlush:
		return reply == "OK"
	case opTrain, opAdd:
		return reply == "QUEUED" || reply == `{"msg":"INSERT 1"}`
	}
	return strings.HasPrefix(reply, `{"cols":`)
}

// drive runs one connection closed-loop — the protocol has no
// pipelining, so every real client waits for its reply — until the
// window ends. next yields the statement stream.
func drive(st *stack, next func() stmt, w window) (*connResult, error) {
	c, err := st.dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &connResult{byClass: map[string]lat{}}
	last := w.start
	// Async writes become visible when the FLUSH covering them
	// returns; pending holds their send times until then.
	var pending []time.Time
	for {
		var s stmt
		t0 := time.Now()
		switch {
		case t0.Before(w.end):
			s = next()
		case len(pending) > 0:
			// Window over with async writes in flight: close the batch.
			s = stmt{class: opFlush, line: "FLUSH"}
		default:
			res.elapsed = last.Sub(w.start).Seconds()
			return res, nil
		}
		reply, err := c.Do(s.line)
		t1 := time.Now()
		measured := !t0.Before(w.start)
		if s.class != opFlush {
			res.sent++
		}
		if err != nil || !expectReply(s, reply) {
			res.failed++
			if res.firstFailure == "" {
				res.firstFailure = fmt.Sprintf("%s -> %q %v", clip(s.line), clip(reply), err)
			}
		}
		switch {
		case reply == "QUEUED":
			if measured {
				pending = append(pending, t0)
			}
			continue
		case s.class == opFlush:
			for _, sent := range pending {
				res.visible = append(res.visible, t1.Sub(sent).Nanoseconds())
			}
			res.ops += len(pending)
			pending = pending[:0]
		case measured:
			res.ops++
			d := t1.Sub(t0).Nanoseconds()
			res.byClass[s.class] = append(res.byClass[s.class], d)
			if s.class == opTrain || s.class == opAdd {
				res.visible = append(res.visible, d)
			}
		default:
			continue
		}
		last = t1
	}
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

// phaseResult pools the connections of one phase.
type phaseResult struct {
	conns        []*connResult
	opsPerS      float64 // Σ over connections of ops ÷ that connection's elapsed
	ops          int
	sent         int
	failed       int
	firstFailure string
}

// runPhase drives every stream concurrently over its own connection
// through the same window and waits for all of them.
func runPhase(st *stack, w window, streams ...func() stmt) (*phaseResult, error) {
	out := &phaseResult{conns: make([]*connResult, len(streams))}
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, next := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.conns[i], errs[i] = drive(st, next, w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.tally()
	return out, nil
}

// tally sums the connections' counters into the phase's.
func (p *phaseResult) tally() {
	for _, r := range p.conns {
		p.ops += r.ops
		p.sent += r.sent
		p.failed += r.failed
		if p.firstFailure == "" {
			p.firstFailure = r.firstFailure
		}
		if r.elapsed > 0 {
			p.opsPerS += float64(r.ops) / r.elapsed
		}
	}
}

// pooled gathers the latencies of the given classes (all when none
// are named) over every connection, sorted.
func (p *phaseResult) pooled(classes ...string) lat {
	var all lat
	for _, c := range p.conns {
		for class, l := range c.byClass {
			if len(classes) == 0 || slices.Contains(classes, class) {
				all = append(all, l...)
			}
		}
	}
	slices.Sort(all)
	return all
}

func (p *phaseResult) visible() lat {
	var all lat
	for _, c := range p.conns {
		all = append(all, c.visible...)
	}
	slices.Sort(all)
	return all
}

// quantile of a sorted sample, nanoseconds; 0 when empty.
func (l lat) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	pos := q * float64(len(l)-1)
	i := int(pos)
	if i+1 >= len(l) {
		return float64(l[len(l)-1])
	}
	return float64(l[i]) + (pos-float64(i))*float64(l[i+1]-l[i])
}

// tail is the highest percentile with at least ten samples beyond it,
// as "p99.9"-style label and value; ok is false under a hundred samples.
func (l lat) tail() (label string, ns float64, ok bool) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.99", 0.9999}, {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(l))*(1-p.q) >= 10 {
			return p.label, l.quantile(p.q), true
		}
	}
	return "", 0, false
}

// median of an unsorted float sample.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
