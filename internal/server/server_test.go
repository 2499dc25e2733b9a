package server

import (
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	root "hazy"
)

// startDB brings up a database with one papers/feedback/labeled
// stack, optionally engine-managed, a TCP listener, and a connected
// client.
func startDB(t *testing.T, engineMode bool) (*root.DB, *Client) {
	t.Helper()
	db, err := root.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// db.Close drains any attached engine before closing storage.
	t.Cleanup(func() { db.Close() })
	if _, err := db.CreateEntityTable("papers", "title"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateExampleTable("feedback"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateClassificationView(root.ViewSpec{
		Name: "labeled", Entities: "papers", Examples: "feedback",
	}); err != nil {
		t.Fatal(err)
	}
	if engineMode {
		if _, err := db.AttachEngine("labeled", root.EngineOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return db, serve(t, db, "labeled")
}

// serve starts a listener over db and returns a connected client.
func serve(t *testing.T, db *root.DB, defaultView string) *Client {
	t.Helper()
	srv := New(db, Options{DefaultView: defaultView})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); srv.Close() })
	go srv.Serve(l) //nolint:errcheck — ends with listener

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startStack is startDB without the db handle.
func startStack(t *testing.T, engineMode bool) *Client {
	t.Helper()
	_, c := startDB(t, engineMode)
	return c
}

// bothModes runs fn against a legacy-mode and an engine-mode stack.
func bothModes(t *testing.T, fn func(t *testing.T, c *Client)) {
	t.Run("mutex", func(t *testing.T) { fn(t, startStack(t, false)) })
	t.Run("engine", func(t *testing.T) { fn(t, startStack(t, true)) })
}

func must(t *testing.T, c *Client, cmd string) string {
	t.Helper()
	resp, err := c.Do(cmd)
	if err != nil {
		t.Fatalf("%s → %v", cmd, err)
	}
	return resp
}

func TestProtocolEndToEnd(t *testing.T) {
	bothModes(t, func(t *testing.T, c *Client) {
		// Build a tiny corpus over the wire.
		dbTitles := []string{
			"relational database query optimization",
			"sql index selection for relational databases",
			"database transaction processing",
		}
		osTitles := []string{
			"kernel scheduler for operating systems",
			"interrupt handling in kernel drivers",
			"operating systems memory paging",
		}
		for i, title := range dbTitles {
			must(t, c, fmt.Sprintf("ADD %d %s", i, title))
		}
		for i, title := range osTitles {
			must(t, c, fmt.Sprintf("ADD %d %s", 100+i, title))
		}
		// Feedback.
		must(t, c, "TRAIN 0 +1")
		must(t, c, "TRAIN 100 -1")
		must(t, c, "TRAIN 1 1")
		must(t, c, "TRAIN 101 -1")

		if got := must(t, c, "LABEL 2"); got != "+1" {
			t.Fatalf("LABEL 2 = %q", got)
		}
		if got := must(t, c, "LABEL 102"); got != "-1" {
			t.Fatalf("LABEL 102 = %q", got)
		}
		if got := must(t, c, "COUNT"); got != "3" {
			t.Fatalf("COUNT = %q", got)
		}
		members := must(t, c, "MEMBERS")
		for _, id := range []string{"0", "1", "2"} {
			if !strings.Contains(" "+members+" ", " "+id+" ") {
				t.Fatalf("MEMBERS %q missing %s", members, id)
			}
		}
		if got := must(t, c, "CLASSIFY sql query database index"); got != "+1" {
			t.Fatalf("CLASSIFY = %q", got)
		}
		unc := must(t, c, "UNCERTAIN 2")
		if len(strings.Fields(unc)) != 2 {
			t.Fatalf("UNCERTAIN = %q", unc)
		}
		stats := must(t, c, "STATS")
		if !strings.Contains(stats, "updates=4") {
			t.Fatalf("STATS = %q", stats)
		}
		if got := must(t, c, "QUIT"); got != "BYE" {
			t.Fatalf("QUIT = %q", got)
		}
	})
}

func TestProtocolErrors(t *testing.T) {
	bothModes(t, func(t *testing.T, c *Client) {
		bad := []string{
			"",
			"BOGUS",
			"LABEL",
			"LABEL notanumber",
			"LABEL 999",
			"TRAIN 1",
			"TRAIN 1 7",
			"TRAIN 999 1",
			"ADD 5",
			"CLASSIFY",
			"UNCERTAIN x",
			"UNCERTAIN 0",
		}
		for _, cmd := range bad {
			if _, err := c.Do(cmd); err == nil {
				t.Fatalf("no error for %q", cmd)
			}
		}
		// The session survives errors.
		if _, err := c.Do("COUNT"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOverlongLineRefused: a line past the 1 MiB statement cap gets
// an ERR reply before the server drops the connection, not a bare
// reset.
func TestOverlongLineRefused(t *testing.T) {
	c := startStack(t, false)
	_, err := c.Do("SQL SELECT " + strings.Repeat("x", 2<<20))
	if err == nil || !strings.Contains(err.Error(), "statement longer than 1 MiB") {
		t.Fatalf("2 MiB line: err = %v, want the statement-size ERR", err)
	}
}

// TestAsyncTrainAndFlush exercises the engine-only protocol: TRAINA
// enqueues without waiting and FLUSH is the barrier after which the
// write is visible (read-your-writes for async writers).
func TestAsyncTrainAndFlush(t *testing.T) {
	c := startStack(t, true)
	must(t, c, "ADD 1 relational database query optimization")
	must(t, c, "ADD 2 kernel interrupt scheduler")
	if got := must(t, c, "TRAINA 1 +1"); got != "QUEUED" {
		t.Fatalf("TRAINA = %q", got)
	}
	if got := must(t, c, "TRAINA 2 -1"); got != "QUEUED" {
		t.Fatalf("TRAINA = %q", got)
	}
	if got := must(t, c, "FLUSH"); got != "OK" {
		t.Fatalf("FLUSH = %q", got)
	}
	if got := must(t, c, "LABEL 1"); got != "+1" {
		t.Fatalf("LABEL 1 after FLUSH = %q", got)
	}
	stats := must(t, c, "STATS")
	if !strings.Contains(stats, "updates=2") || !strings.Contains(stats, "trains=2") {
		t.Fatalf("STATS = %q", stats)
	}
	// A failed async op surfaces on the next FLUSH.
	must(t, c, "TRAINA 999 +1")
	if _, err := c.Do("FLUSH"); err == nil {
		t.Fatal("FLUSH after bad TRAINA reported no error")
	}
	// ADDA is async too.
	if got := must(t, c, "ADDA 3 database systems storage engines"); got != "QUEUED" {
		t.Fatalf("ADDA = %q", got)
	}
	must(t, c, "FLUSH")
	if got := must(t, c, "LABEL 3"); got != "+1" && got != "-1" {
		t.Fatalf("LABEL 3 = %q", got)
	}
}

// TestViewQualifiedVerbs drives the same protocol through explicit
// view names and USE instead of the server default.
func TestViewQualifiedVerbs(t *testing.T) {
	bothModes(t, func(t *testing.T, c *Client) {
		must(t, c, "ADD labeled 1 relational database query optimization")
		must(t, c, "ADD labeled 2 kernel interrupt scheduler")
		must(t, c, "TRAIN labeled 1 +1")
		must(t, c, "TRAIN labeled 2 -1")
		if got := must(t, c, "LABEL labeled 1"); got != "+1" {
			t.Fatalf("LABEL labeled 1 = %q", got)
		}
		if got := must(t, c, "COUNT labeled"); got != "1" {
			t.Fatalf("COUNT labeled = %q", got)
		}
		if got := must(t, c, "MEMBERS labeled"); got != "1" {
			t.Fatalf("MEMBERS labeled = %q", got)
		}
		if _, err := c.Do("LABEL nope 1"); err == nil {
			t.Fatal("unknown view accepted")
		}
		if _, err := c.Do("USE nope"); err == nil {
			t.Fatal("USE of unknown view accepted")
		}
		must(t, c, "USE labeled")
		if got := must(t, c, "LABEL 2"); got != "-1" {
			t.Fatalf("LABEL 2 after USE = %q", got)
		}
	})
}

// TestMultiViewServer serves two views from one catalog — one
// engine-managed, one legacy trigger-maintained — through a single
// connection, using view-qualified verbs and SQL.
func TestMultiViewServer(t *testing.T) {
	db, c := startDB(t, true) // "labeled" is engined
	if _, err := db.CreateEntityTable("docs", "body"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateExampleTable("votes"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateClassificationView(root.ViewSpec{
		Name: "tagged", Entities: "docs", Examples: "votes",
	}); err != nil {
		t.Fatal(err)
	}

	// Populate both views over the wire.
	must(t, c, "ADD labeled 1 relational database query optimization")
	must(t, c, "ADD labeled 2 kernel interrupt scheduler")
	must(t, c, "TRAIN labeled 1 +1")
	must(t, c, "TRAIN labeled 2 -1")
	must(t, c, "ADD tagged 10 spam lottery winner click now")
	must(t, c, "ADD tagged 11 meeting notes from the design review")
	must(t, c, "TRAIN tagged 10 +1")
	must(t, c, "TRAIN tagged 11 -1")

	if got := must(t, c, "LABEL labeled 1"); got != "+1" {
		t.Fatalf("LABEL labeled 1 = %q", got)
	}
	if got := must(t, c, "LABEL tagged 10"); got != "+1" {
		t.Fatalf("LABEL tagged 10 = %q", got)
	}
	if got := must(t, c, "LABEL tagged 11"); got != "-1" {
		t.Fatalf("LABEL tagged 11 = %q", got)
	}
	// Engine mode is per view: async writes work on the engined view
	// and are rejected on the legacy one.
	must(t, c, "ADD labeled 3 database transaction processing")
	if got := must(t, c, "TRAINA labeled 3 +1"); got != "QUEUED" {
		t.Fatalf("TRAINA labeled = %q", got)
	}
	must(t, c, "FLUSH labeled")
	if _, err := c.Do("TRAINA tagged 11 -1"); err == nil {
		t.Fatal("TRAINA on a non-engined view accepted")
	}
	// The engined view's STATS carry engine counters; the legacy one's
	// do not.
	if got := must(t, c, "STATS labeled"); !strings.Contains(got, "snapver=") {
		t.Fatalf("STATS labeled = %q, want engine counters", got)
	}
	if got := must(t, c, "STATS tagged"); strings.Contains(got, "snapver=") {
		t.Fatalf("STATS tagged = %q, want no engine counters", got)
	}
	// SQL sees the whole catalog.
	res := mustSQL(t, c, "SELECT COUNT(*) FROM tagged WHERE class = 1")
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Fatalf("SQL count over tagged = %+v", res)
	}
	// The trained-positive ids are members (the tiny corpus makes the
	// untrained tail's labels model noise, so only inclusion is
	// asserted).
	res = mustSQL(t, c, "SELECT id FROM labeled WHERE class = 1")
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	if !got["1"] || !got["3"] {
		t.Fatalf("SQL members over labeled = %+v", res)
	}
}

func mustSQL(t *testing.T, c *Client, stmt string) *root.Result {
	t.Helper()
	res, err := c.Exec(stmt)
	if err != nil {
		t.Fatalf("SQL %s → %v", stmt, err)
	}
	return res
}

// TestSQLOverTCP runs the full §2.1 statement sequence — DDL, view
// declaration, engine attach, inserts, selects — through the SQL wire
// command.
func TestSQLOverTCP(t *testing.T) {
	db, err := root.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c := serve(t, db, "")

	for _, stmt := range []string{
		"CREATE TABLE papers (id BIGINT, title TEXT) KEY id",
		"CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id",
		`INSERT INTO papers VALUES
			(1, 'relational query optimization and indexing'),
			(2, 'kernel scheduling for multicore operating systems'),
			(3, 'sql views and transaction processing')`,
		`CREATE CLASSIFICATION VIEW labeled KEY id
			ENTITIES FROM papers KEY id
			EXAMPLES FROM feedback KEY id LABEL l
			FEATURE FUNCTION tf_bag_of_words USING SVM`,
		"ATTACH ENGINE TO labeled",
		"INSERT INTO feedback VALUES (1, 1), (2, -1)",
	} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s → %v", stmt, err)
		}
	}
	res := mustSQL(t, c, "SELECT class FROM labeled WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Fatalf("SELECT class = %+v", res)
	}
	// The engine attached over SQL serves the verbs too.
	if got := must(t, c, "LABEL labeled 3"); got != "+1" {
		t.Fatalf("LABEL labeled 3 = %q", got)
	}
	if got := must(t, c, "TRAINA labeled 3 +1"); got != "QUEUED" {
		t.Fatalf("TRAINA = %q", got)
	}
	must(t, c, "FLUSH labeled")
	if _, err := c.Exec("DETACH ENGINE FROM labeled"); err != nil {
		t.Fatal(err)
	}
	// Detached: trigger maintenance resumes, SQL still answers.
	res = mustSQL(t, c, "SELECT COUNT(*) FROM labeled")
	if len(res.Rows) != 1 || res.Rows[0][0] != "3" {
		t.Fatalf("full count after detach = %+v", res)
	}
	res = mustSQL(t, c, "SELECT class FROM labeled WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0] != "1" {
		t.Fatalf("class of trained-positive entity after detach = %+v", res)
	}
	if _, err := c.Exec("SELECT * FROM nope"); err == nil {
		t.Fatal("SQL error not propagated over the wire")
	}
}

// TestPerSessionFlush: one connection's failed async write surfaces
// in ITS next FLUSH, never in a concurrent session's — the per-token
// error attribution end to end.
func TestPerSessionFlush(t *testing.T) {
	c1 := startStack(t, true)
	must(t, c1, "ADD 1 relational database query optimization")
	c2, err := Dial(c1.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Session 1 enqueues a doomed op (unknown entity); session 2 a
	// valid one.
	must(t, c1, "TRAINA 999 +1")
	must(t, c2, "TRAINA 1 +1")
	// Session 2's FLUSH must not collect session 1's failure.
	if got := must(t, c2, "FLUSH"); got != "OK" {
		t.Fatalf("session 2 FLUSH = %q", got)
	}
	// Session 1's FLUSH reports it...
	if _, err := c1.Do("FLUSH"); err == nil {
		t.Fatal("session 1 FLUSH did not report its own failed TRAINA")
	}
	// ...exactly once.
	if got := must(t, c1, "FLUSH"); got != "OK" {
		t.Fatalf("second FLUSH = %q", got)
	}
	// Both sessions observe session 2's applied write.
	for _, c := range []*Client{c1, c2} {
		if got := must(t, c, "LABEL 1"); got != "+1" {
			t.Fatalf("LABEL 1 = %q", got)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	bothModes(t, func(t *testing.T, c *Client) {
		must(t, c, "ADD 1 relational database query")
		must(t, c, "ADD 2 kernel interrupt scheduler")
		must(t, c, "TRAIN 1 +1")
		must(t, c, "TRAIN 2 -1")
		addr := c.conn.RemoteAddr().String()

		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cc, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer cc.Close()
				for i := 0; i < 50; i++ {
					if _, err := cc.Do("LABEL 1"); err != nil {
						errs <- err
						return
					}
					if _, err := cc.Do("COUNT"); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	})
}

// TestConcurrentTrainAndLabel is the engine's concurrent-session
// soak: N sessions interleave TRAIN (sync and async) with LABEL and
// COUNT against one view. Under -race this asserts the read and
// write paths share no unsynchronized state; after a final FLUSH the
// view must have converged — every queued example applied, and every
// session observing labels that agree with the model. The model is SGD
// over an interleaving-dependent order of the examples, so which topic
// a given paper lands in is not asserted; that each label is its
// title's CLASSIFY under the converged model holds under every order.
func TestConcurrentTrainAndLabel(t *testing.T) {
	c := startStack(t, true)
	// Corpus: two topics, ids 1..20 and 100..119.
	const perTopic = 20
	titles := map[int]string{}
	for i := 0; i < perTopic; i++ {
		titles[i+1] = fmt.Sprintf("relational database query optimization paper %d", i)
		titles[100+i] = fmt.Sprintf("kernel scheduler interrupt driver paper %d", i)
		must(t, c, fmt.Sprintf("ADD %d %s", i+1, titles[i+1]))
		must(t, c, fmt.Sprintf("ADD %d %s", 100+i, titles[100+i]))
	}
	addr := c.conn.RemoteAddr().String()

	const goroutines = 8
	const perG = 4 // distinct example ids per goroutine (< perTopic/2 per topic)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cc.Close()
			for i := 0; i < perG; i++ {
				// Even goroutines label database papers +1, odd ones
				// kernel papers −1; ids are disjoint across sessions.
				id := g/2*perG + i + 1
				cmd := fmt.Sprintf("TRAIN %d +1", id)
				if g%2 == 1 {
					cmd = fmt.Sprintf("TRAINA %d -1", 100+id)
				}
				if _, err := cc.Do(cmd); err != nil {
					errs <- fmt.Errorf("g%d: %s: %w", g, cmd, err)
					return
				}
				for _, read := range []string{"LABEL 1", "LABEL 101", "COUNT"} {
					if _, err := cc.Do(read); err != nil {
						errs <- fmt.Errorf("g%d: %s: %w", g, read, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	must(t, c, "FLUSH")
	// Convergence: every example was applied...
	stats := must(t, c, "STATS")
	wantUpdates := fmt.Sprintf("updates=%d", goroutines*perG)
	if !strings.Contains(stats, wantUpdates) {
		t.Fatalf("STATS = %q, want %s", stats, wantUpdates)
	}
	// ...and every label is its title classified under the converged
	// model, observed identically from a second session.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, cc := range []*Client{c, c2} {
		positives := 0
		for id, title := range titles {
			got := must(t, cc, fmt.Sprintf("LABEL %d", id))
			if want := must(t, cc, "CLASSIFY "+title); got != want {
				t.Fatalf("LABEL %d = %q after convergence, CLASSIFY of its title %q", id, got, want)
			}
			if got == "+1" {
				positives++
			}
		}
		n, err := strconv.Atoi(must(t, cc, "COUNT"))
		if err != nil || n != positives {
			t.Fatalf("COUNT = %d (%v), want %d", n, err, positives)
		}
	}
}

// TestAttachDetachChurn: a view's engine attaches and detaches in a
// loop while verbs run against the view. Each verb binds whatever
// owns the view at that moment — the engine's published version, or
// the live structure behind the statement mutex — so no write is
// refused as read-only and nothing panics; under -race it checks that
// the view changes hands without an unsynchronized access.
func TestAttachDetachChurn(t *testing.T) {
	db, _ := startDB(t, false)
	srv := New(db, Options{DefaultView: "labeled"})
	const n = 60
	for id := 1; id <= n; id++ {
		if out, _ := srv.Exec(fmt.Sprintf("ADD %d relational database paper %d", id, id)); out != "OK" {
			t.Fatalf("ADD %d = %q", id, out)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := db.NewSession()
		mu := db.StatementMu()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, stmt := range []string{"ATTACH ENGINE TO labeled", "DETACH ENGINE FROM labeled"} {
				mu.Lock()
				_, err := sess.Exec(stmt)
				mu.Unlock()
				if err != nil {
					t.Errorf("%s: %v", stmt, err)
					return
				}
			}
		}
	}()
	for id := 1; id <= n; id++ {
		for _, line := range []string{fmt.Sprintf("TRAIN %d %+d", id, 1-2*(id%2)), fmt.Sprintf("LABEL %d", id), "STATS"} {
			if out, _ := srv.Exec(line); strings.Contains(out, "read-only") {
				t.Errorf("%s = %q", line, out)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestStatsLineStableOrder pins the engine-counter section of the
// STATS response byte for byte: external scrapers parse this line
// with fixed key positions, so the key set, ordering, and formatting
// documented on engine.Stats.String must not drift. The view-stats
// prefix (updates/reorgs/band) carries timing-dependent values, so
// only its key order is asserted; the engine section after a fixed,
// fully synchronous write sequence is deterministic and pinned whole.
func TestStatsLineStableOrder(t *testing.T) {
	c := startStack(t, true)
	// Six synchronous writes: each returns only after its batch is
	// applied and published, so each is its own size-1 batch and the
	// counters below are exact, not racy.
	must(t, c, "ADD 1 relational query optimization")
	must(t, c, "ADD 2 kernel interrupt handling")
	must(t, c, "ADD 3 transaction concurrency control")
	must(t, c, "TRAIN 1 +1")
	must(t, c, "TRAIN 2 -1")
	must(t, c, "TRAIN 3 +1")
	resp := must(t, c, "STATS")
	if !regexp.MustCompile(`^updates=\d+ reorgs=\d+ band=\d+ queued=`).MatchString(resp) {
		t.Fatalf("STATS view-section key order drifted: %q", resp)
	}
	got := resp[strings.Index(resp, "queued="):]
	want := "queued=0 pending=0 applied=6 trains=3 adds=3 batches=6 maxbatch=1 errors=0 snapver=7 hist=6/0/0/0/0/0/0/0"
	if got != want {
		t.Errorf("STATS engine section drifted:\n got %q\nwant %q", got, want)
	}
}
