package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"time"

	root "hazy"
	"hazy/internal/server"
)

const walSegmentBytes = 4 << 20 // hazyd's default

// setup builds the workload's database in dir the way an operator
// would before pointing hazyd at it: bulk-load with Fsync "off", the
// warm examples BEFORE the view is declared (so the model starts warm,
// paper §4.1 — examples inserted after it on a cold model cause a
// reorganization storm that would dominate set-up), declare the view
// through the SQL front door, checkpoint, close.
func setup(dir string, w *workload, c *corpus, wr *writer) (userBytes int64, err error) {
	db, err := root.OpenWith(dir, root.OpenOptions{Fsync: "off", WALSegmentBytes: walSegmentBytes})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	papers, err := db.CreateEntityTable("papers", "title")
	if err != nil {
		return 0, err
	}
	feedback, err := db.CreateExampleTable("feedback")
	if err != nil {
		return 0, err
	}
	for id := int64(1); id <= int64(w.entities); id++ {
		title := c.title(id)
		userBytes += 8 + int64(len(title))
		if err := papers.InsertText(id, title); err != nil {
			return 0, err
		}
	}
	for i := 0; i < w.warm(); i++ {
		id := wr.warm(i)
		if err := feedback.InsertExample(id, c.label(id)); err != nil {
			return 0, err
		}
	}
	ddl := fmt.Sprintf("CREATE CLASSIFICATION VIEW %s KEY id ENTITIES FROM papers EXAMPLES FROM feedback USING SVM ARCHITECTURE %s", viewName, w.arch)
	if w.partitions > 1 {
		ddl += fmt.Sprintf(" PARTITIONS %d", w.partitions)
	}
	if _, err := db.NewSession().Exec(ddl); err != nil {
		return 0, err
	}
	return userBytes, db.Checkpoint()
}

// stack is a served database: what cmd/hazyd assembles, inside this
// process so load generator and server share the machine's two cores
// the way the issue sizes them.
type stack struct {
	db     *root.DB
	srv    *server.Server
	ln     net.Listener
	served chan error
}

// open reopens dir under hazyd's durability default, attaches the
// engine where the workload uses one, serves on a loopback port and
// returns once a first read has answered over the wire.
func open(dir string, w *workload) (*stack, error) {
	db, err := root.OpenWith(dir, root.OpenOptions{Fsync: "always", WALSegmentBytes: walSegmentBytes})
	if err != nil {
		return nil, err
	}
	st := &stack{db: db, served: make(chan error, 1)}
	if w.engine {
		if _, err := db.NewSession().Exec("ATTACH ENGINE TO " + viewName); err != nil {
			db.Close()
			return nil, err
		}
	}
	st.srv = server.New(db, server.Options{DefaultView: viewName})
	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		db.Close()
		return nil, err
	}
	go func() { st.served <- st.srv.Serve(st.ln) }()
	c, err := st.dial()
	if err == nil {
		_, err = c.Do("LABEL 1")
		c.Close()
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) dial() (*server.Client, error) { return server.Dial(st.ln.Addr().String()) }

// close stops serving, waits for the accept loop, and closes the
// database (which drains the engine and checkpoints).
func (st *stack) close() error {
	st.ln.Close()
	st.srv.Close()
	if err := <-st.served; err != nil && !errors.Is(err, net.ErrClosed) {
		st.db.Close()
		return err
	}
	return st.db.Close()
}

// timed runs f and returns how long it took, in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
