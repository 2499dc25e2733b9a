package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hazy/internal/wal"
)

// Target is what the applier needs from the database it applies into.
// Both methods are called from the applier's single goroutine, in
// stream order.
type Target interface {
	// Apply applies one shipped record; resume is the primary position
	// one past it (the cursor once it is applied).
	Apply(resume wal.Pos, payload []byte) error
	// Commit makes the records applied since the previous Commit
	// locally durable and republishes the serving snapshots.
	Commit() error
}

// Options configures an Applier.
type Options struct {
	// Addr is the primary's shipping address.
	Addr string
	// Resume is the position to resume the stream from (from the
	// replica's local state; a zero position requests a full image,
	// which only Bootstrap should do).
	Resume wal.Pos
	// Metrics receives the apply/lag/reconnect observations (nil: a
	// private unregistered set).
	Metrics *Metrics
	// Logf, when set, receives connection-lifecycle lines.
	Logf func(format string, args ...any)
}

// batchRecords caps how many records apply between commit barriers
// when the stream never goes idle; an idle stream commits on the next
// heartbeat, so a caught-up replica publishes within a heartbeat.
const batchRecords = 256

// dialTimeout bounds one connection attempt.
const dialTimeout = 5 * time.Second

// Backoff bounds for reconnection attempts.
const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 5 * time.Second
)

// ErrPruned is the terminal applier error for a resume position the
// primary has checkpointed away: the replica fell too far behind and
// must be re-seeded from a fresh image (wipe the directory and boot
// again). Continuing would skip records, so the applier refuses.
var ErrPruned = errors.New("replica: resume position pruned on primary; re-seed this replica from a fresh directory")

// Applier maintains the replica side of the stream on its own
// goroutine: dial (with capped exponential backoff), hello with the
// resume cursor, then apply records and commit in batches, forever —
// until Stop, or a terminal error (a failed apply, or a pruned resume
// position).
type Applier struct {
	opts   Options
	target Target
	m      *Metrics

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	conn    net.Conn // live connection, for Disconnect
	pos     wal.Pos  // resume cursor (last applied)
	err     error    // terminal error, once set
	pending int64    // records applied since the last commit
	tip     heartbeat
	stopped bool
}

// StartApplier spawns the applier. Stop it with Stop; a terminal
// error parks the applier (the database keeps serving its last
// applied state) and surfaces in Err and Stop.
func StartApplier(target Target, opts Options) *Applier {
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics(nil)
	}
	a := &Applier{
		opts:   opts,
		target: target,
		m:      opts.Metrics,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	a.pos = opts.Resume
	go a.run()
	return a
}

// Pos returns the resume cursor: the primary position one past the
// last applied record.
func (a *Applier) Pos() wal.Pos {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pos
}

// Err returns the applier's terminal error, if it hit one.
func (a *Applier) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Disconnect severs the current connection (if any), forcing a
// reconnect-and-resume cycle — an operational and testing aid.
func (a *Applier) Disconnect() {
	a.mu.Lock()
	conn := a.conn
	a.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Stop ends the applier: the stream closes, applied-but-uncommitted
// records get a final commit, and the goroutine exits. Returns the
// terminal error if the applier had already died of one.
func (a *Applier) Stop() error {
	a.mu.Lock()
	if !a.stopped {
		a.stopped = true
		close(a.stop)
	}
	conn := a.conn
	a.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-a.done
	return a.Err()
}

func (a *Applier) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

func (a *Applier) run() {
	defer close(a.done)
	backoff := backoffMin
	first := true
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		if !first {
			a.m.Reconnects.Inc()
		}
		conn, err := net.DialTimeout("tcp", a.opts.Addr, dialTimeout)
		if err != nil {
			a.logf("replica: dial %s: %v (retrying in %v)", a.opts.Addr, err, backoff)
			select {
			case <-a.stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			first = false
			continue
		}
		first = false
		backoff = backoffMin
		err = a.session(conn)
		conn.Close()
		a.mu.Lock()
		a.conn = nil
		a.mu.Unlock()
		a.m.Connected.Set(0)
		if err != nil {
			a.mu.Lock()
			a.err = err
			a.mu.Unlock()
			a.logf("replica: applier stopped: %v", err)
			return
		}
		select {
		case <-a.stop:
			return
		default:
			a.logf("replica: connection to %s lost; reconnecting", a.opts.Addr)
		}
	}
}

// session runs one connection to its end. A nil return means the
// connection dropped (retry); an error is terminal.
func (a *Applier) session(conn net.Conn) error {
	a.mu.Lock()
	a.conn = conn
	pos := a.pos
	a.mu.Unlock()

	h := hello{}
	if pos != (wal.Pos{}) {
		h.Pos = &pos
	}
	if err := writeJSON(conn, msgHello, h); err != nil {
		return nil // connection-level: retry
	}
	a.m.Connected.Set(1)
	a.logf("replica: streaming from %s at seg %d off %d", a.opts.Addr, pos.Seg, pos.Off)

	// Commit whatever applied when the session ends, however it ends:
	// the local state stays a clean batch boundary.
	defer a.commitPending() //nolint:errcheck — the session error wins

	br := bufio.NewReader(conn)
	for {
		typ, body, err := readMsg(br)
		if err != nil {
			return nil // connection-level: retry
		}
		switch typ {
		case msgRecord:
			resume, payload, err := wal.DecodePosFrame(body)
			if err != nil {
				return fmt.Errorf("replica: record: %w", err)
			}
			if err := a.target.Apply(resume, payload); err != nil {
				return fmt.Errorf("replica: apply at seg %d off %d: %w", resume.Seg, resume.Off, err)
			}
			a.mu.Lock()
			a.pos = resume
			a.pending++
			pending := a.pending
			a.mu.Unlock()
			a.m.ApplyRecords.Inc()
			a.m.LagRecords.Set(pending)
			if pending >= batchRecords {
				if err := a.commitPending(); err != nil {
					return err
				}
			}
		case msgHeartbeat:
			var hb heartbeat
			if err := json.Unmarshal(body, &hb); err != nil {
				return fmt.Errorf("replica: heartbeat: %w", err)
			}
			a.mu.Lock()
			a.tip = hb
			a.mu.Unlock()
			if err := a.commitPending(); err != nil {
				return err
			}
		case msgSnapBegin:
			// Mid-life image offer means our cursor is gone on the
			// primary. Applying it over live state is not possible —
			// the image replaces the whole directory.
			if h.Pos != nil {
				return ErrPruned
			}
			return fmt.Errorf("replica: unexpected image (bootstrap uses Bootstrap)")
		case msgSnapFile, msgSnapEnd:
			return fmt.Errorf("replica: image frame outside an image")
		case msgErr:
			return fmt.Errorf("replica: primary: %s", body)
		default:
			return fmt.Errorf("replica: unknown message type %d", typ)
		}
	}
}

// commitPending runs the target's commit barrier if any records
// applied since the last one, then refreshes the lag gauges.
func (a *Applier) commitPending() error {
	a.mu.Lock()
	pending := a.pending
	a.mu.Unlock()
	if pending > 0 {
		if err := a.target.Commit(); err != nil {
			return fmt.Errorf("replica: commit applied batch: %w", err)
		}
		a.mu.Lock()
		a.pending = 0
		a.mu.Unlock()
		a.m.ApplyBatches.Inc()
	}
	a.updateLag()
	return nil
}

// updateLag recomputes the lag gauges from the applied cursor and the
// newest advertised primary tip.
func (a *Applier) updateLag() {
	a.mu.Lock()
	pos, tip, pending := a.pos, a.tip, a.pending
	a.mu.Unlock()
	a.m.LagRecords.Set(pending)
	if tip.Nanos == 0 {
		return // no heartbeat yet
	}
	if !pos.Before(tip.Pos) {
		a.m.LagBytes.Set(0)
		a.m.LagSeconds.Set(0)
		return
	}
	lag := int64(tip.Pos.Seg-pos.Seg)*tip.SegBytes + (tip.Pos.Off - pos.Off)
	if lag < 0 {
		lag = 0
	}
	a.m.LagBytes.Set(lag)
	secs := (time.Now().UnixNano() - tip.Nanos) / int64(time.Second)
	if secs < 0 {
		secs = 0
	}
	a.m.LagSeconds.Set(secs)
}

// Bootstrap seeds a fresh replica: it dials the primary, requests a
// full checkpoint image, hands each file to accept, and returns the
// position the record stream must resume from. The caller writes the
// files into an empty database directory (and primes its manifest)
// before opening it.
func Bootstrap(addr string, accept func(name string, data []byte) error) (wal.Pos, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return wal.Pos{}, fmt.Errorf("replica: bootstrap dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := writeJSON(conn, msgHello, hello{}); err != nil {
		return wal.Pos{}, fmt.Errorf("replica: bootstrap hello: %w", err)
	}
	br := bufio.NewReader(conn)
	typ, body, err := readMsg(br)
	if err != nil {
		return wal.Pos{}, fmt.Errorf("replica: bootstrap: %w", err)
	}
	if typ == msgErr {
		return wal.Pos{}, fmt.Errorf("replica: bootstrap: primary: %s", body)
	}
	if typ != msgSnapBegin {
		return wal.Pos{}, fmt.Errorf("replica: bootstrap: message type %d, want image", typ)
	}
	for {
		typ, body, err := readMsg(br)
		if err != nil {
			return wal.Pos{}, fmt.Errorf("replica: bootstrap: %w", err)
		}
		switch typ {
		case msgSnapFile:
			name, data, err := decodeSnapFile(body)
			if err != nil {
				return wal.Pos{}, err
			}
			if err := accept(name, data); err != nil {
				return wal.Pos{}, err
			}
		case msgSnapEnd:
			var end snapEnd
			if err := json.Unmarshal(body, &end); err != nil {
				return wal.Pos{}, fmt.Errorf("replica: bootstrap: %w", err)
			}
			return end.Pos, nil
		case msgErr:
			return wal.Pos{}, fmt.Errorf("replica: bootstrap: primary: %s", body)
		default:
			return wal.Pos{}, fmt.Errorf("replica: bootstrap: message type %d inside image", typ)
		}
	}
}
