package replica

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"hazy/internal/relation"
	"hazy/internal/wal"
)

// Primary is what the shipper needs from the database it ships for.
type Primary interface {
	// Log is the write-ahead log to follow.
	Log() *wal.Log
	// CheckpointImage checkpoints the catalog and streams every file a
	// fresh replica needs, returning the position the record stream
	// resumes at.
	CheckpointImage(send func(name string, data []byte) error) (wal.Pos, error)
}

// Shipper answers replica connections on a TCP listener: each
// connection gets a checkpoint image if it needs one, then an endless
// tail of committed WAL records interleaved with heartbeats. One
// goroutine per connection; connections are independent (a slow
// replica delays nobody else).
type Shipper struct {
	p Primary
	m *Metrics

	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// followWait bounds one Follower.Next: an idle tip turns into a
// heartbeat at this cadence.
const followWait = 200 * time.Millisecond

// writeTimeout bounds any single message write so a dead replica
// cannot wedge its serving goroutine.
const writeTimeout = 30 * time.Second

// NewShipper starts shipping p's log on addr (e.g. ":7071" or
// "127.0.0.1:0"). Close stops the listener and every conversation.
func NewShipper(p Primary, addr string, m *Metrics) (*Shipper, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica: ship listen %s: %w", addr, err)
	}
	if m == nil {
		m = NewMetrics(nil)
	}
	s := &Shipper{p: p, m: m, ln: ln, stop: make(chan struct{}), conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Shipper) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs every replica connection, and waits
// for the serving goroutines to exit.
func (s *Shipper) Close() error {
	close(s.stop)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Shipper) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Shipper) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.m.ShipConns.Add(1)
	defer s.m.ShipConns.Add(-1)
	if err := s.ship(conn); err != nil {
		// Best effort: a replica that is still listening learns why.
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_ = writeMsg(conn, msgErr, []byte(err.Error())) //nolint:errcheck — the connection is going away
	}
}

// ship runs one replica conversation to its end (connection error,
// shipper close, or log close).
func (s *Shipper) ship(conn net.Conn) error {
	br := bufio.NewReader(conn)
	typ, body, err := readMsg(br)
	if err != nil {
		return fmt.Errorf("replica: ship handshake: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("replica: ship handshake: message type %d", typ)
	}
	var h hello
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("replica: ship handshake: %w", err)
	}
	log := s.p.Log()
	w := &deadlineWriter{conn: conn}

	var start wal.Pos
	if h.Pos != nil && log.Contains(*h.Pos) {
		start = *h.Pos
	} else {
		// Fresh replica — or one whose resume position a checkpoint has
		// pruned: stream a full image, then the tail past it.
		if err := writeMsg(w, msgSnapBegin, nil); err != nil {
			return err
		}
		pos, err := s.p.CheckpointImage(func(name string, data []byte) error {
			return writeMsg(w, msgSnapFile, encodeSnapFile(name, data))
		})
		if err != nil {
			return fmt.Errorf("replica: checkpoint image: %w", err)
		}
		if err := writeJSON(w, msgSnapEnd, snapEnd{Pos: pos}); err != nil {
			return err
		}
		start = pos
	}

	hb := func() error {
		return writeJSON(w, msgHeartbeat, heartbeat{
			Pos: log.CommittedEnd(), Nanos: time.Now().UnixNano(), SegBytes: log.SegmentBytes(),
		})
	}
	if err := hb(); err != nil {
		return err
	}
	f := log.Follow(start)
	defer f.Close()
	for n := 0; ; n++ {
		_, payload, ok, err := f.Next(s.stop, followWait)
		if err != nil {
			return err
		}
		select {
		case <-s.stop:
			return nil
		default:
		}
		if !ok {
			if err := hb(); err != nil {
				return err
			}
			continue
		}
		if relation.Shippable(payload) {
			if err := writeMsg(w, msgRecord, wal.EncodePosFrame(f.Pos(), payload)); err != nil {
				return err
			}
			s.m.ShipRecords.Inc()
		}
		// A continuously busy stream still advertises the tip so the
		// replica's lag gauges move.
		if n%64 == 63 {
			if err := hb(); err != nil {
				return err
			}
		}
	}
}

// deadlineWriter arms a write deadline before every message write.
type deadlineWriter struct{ conn net.Conn }

func (w *deadlineWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return w.conn.Write(p)
}
