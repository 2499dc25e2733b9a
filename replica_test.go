// Replication-correctness suite: the crash-matrix workload streamed
// to live read replicas. A primary ships its WAL; replicas bootstrap
// (before traffic, and mid-stream from a checkpoint image), tail the
// stream through the idempotent redo path, survive forced disconnects
// and full restarts, and must converge to byte-identical results for
// a golden query set. PROMOTE turns a replica into a writable primary
// at the exact position it had applied to.
package hazy_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	root "hazy"
	"hazy/internal/server"
	"hazy/internal/wal"
)

// goldenQueries is the equivalence probe: every row of every table
// and the full classification view, deterministically ordered.
var goldenQueries = []string{
	"SELECT COUNT(*) FROM papers",
	"SELECT COUNT(*) FROM feedback",
	"SELECT id, title FROM papers ORDER BY id",
	"SELECT id, label FROM feedback ORDER BY id",
	"SELECT COUNT(*) FROM lv WHERE class = 1",
	"SELECT id, class FROM lv ORDER BY id",
}

// goldenResults renders the golden query set as one string, so
// primary/replica equivalence is a byte comparison.
func goldenResults(t *testing.T, db *root.DB) string {
	t.Helper()
	s, err := tryGoldenResults(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tryGoldenResults(db *root.DB) (string, error) {
	var b strings.Builder
	sess := db.NewSession()
	for _, q := range goldenQueries {
		res, err := sess.Exec(q)
		if err != nil {
			return "", fmt.Errorf("golden query %q: %w", q, err)
		}
		fmt.Fprintf(&b, "-- %s\n", q)
		for _, row := range res.Rows {
			fmt.Fprintln(&b, strings.Join(row, "|"))
		}
	}
	return b.String(), nil
}

// waitApplied polls until the replica's applied position reaches want
// (a primary WALEnd captured right after a shippable record).
func waitApplied(t *testing.T, rep *root.DB, want wal.Pos, desc string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := rep.AppliedPos(); !got.Before(want) {
			return
		}
		if err := rep.ReplicaErr(); err != nil {
			t.Fatalf("%s: replica stream died: %v", desc, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: replica stuck at %+v, want %+v", desc, rep.AppliedPos(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertEquivalent drains the replica to the primary's current WAL
// tip and byte-compares the golden query set. Applied records become
// visible at the next commit/publish (batch boundary or idle
// heartbeat), so the comparison polls briefly before failing.
func assertEquivalent(t *testing.T, prim, rep *root.DB, desc string) {
	t.Helper()
	waitApplied(t, rep, prim.WALEnd(), desc)
	want := goldenResults(t, prim)
	deadline := time.Now().Add(30 * time.Second)
	var got string
	for {
		var err error
		if got, err = tryGoldenResults(rep); err == nil && got == want {
			return
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("%s: replica queries: %v", desc, err)
			}
			t.Fatalf("%s: replica diverged\nprimary:\n%s\nreplica:\n%s", desc, want, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricValue(t *testing.T, db *root.DB, name string) int64 {
	t.Helper()
	for _, s := range db.Metrics().Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestReplicationEquivalence is the acceptance test: the PR 4 crash
// workload (mixed DDL, ADD, TRAIN, CHECKPOINT) streamed to replicas,
// including a forced disconnect/resume, a mid-stream checkpoint-image
// bootstrap, a replica restart, and a promote at the exact WAL tip.
func TestReplicationEquivalence(t *testing.T) {
	opts := root.OpenOptions{Fsync: "off"}
	prim, err := root.OpenWith(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	shipper, err := prim.StartShipping("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := shipper.Addr()

	// Replica 1 bootstraps BEFORE any traffic: it sees the entire
	// history — every DDL and mutation — through the stream alone.
	rep1dir := t.TempDir()
	if err := root.BootstrapReplica(rep1dir, addr, opts); err != nil {
		t.Fatal(err)
	}
	rep1, err := root.OpenWith(rep1dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep1.StartReplica(addr, t.Logf); err != nil {
		t.Fatal(err)
	}

	// Phase 1: the full crash workload (DDL mid-stream, CHECKPOINT —
	// which prunes the primary's WAL under the follower — and TRAINs).
	ops := crashWorkload()
	if acked, err := runCrashWorkload(prim, ops); err != nil || acked != len(ops) {
		t.Fatalf("workload: %d/%d acked, %v", acked, len(ops), err)
	}
	assertEquivalent(t, prim, rep1, "phase 1 (streamed history)")
	assertViewsConsistent(t, rep1, "replica 1 view")

	// The replica rejects every mutation surface with a clear error.
	if _, err := rep1.NewSession().Exec("INSERT INTO feedback VALUES (99, 1)"); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica accepted a write (err = %v)", err)
	}
	if _, err := rep1.NewSession().Exec("CREATE TABLE t2 (id BIGINT, body TEXT) KEY id"); err == nil ||
		!strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica accepted DDL (err = %v)", err)
	}

	// Phase 2: forced disconnect mid-traffic — the applier reconnects
	// with backoff and resumes from its exact cursor, no gaps, no
	// double-applies.
	rep1.DisconnectReplica()
	sess := prim.NewSession()
	for id := int64(20); id <= 27; id++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, crashTitle(id))); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO feedback VALUES (%d, %d)", id, 1-2*(id%2))); err != nil {
			t.Fatal(err)
		}
	}
	assertEquivalent(t, prim, rep1, "phase 2 (disconnect/resume)")
	if n := metricValue(t, rep1, "hazy_replica_reconnects_total"); n < 1 {
		t.Fatalf("hazy_replica_reconnects_total = %d after forced disconnect", n)
	}

	// Phase 3: replica 2 bootstraps MID-stream — the checkpoint-image
	// path: a consistent image seeds the directory, the stream resumes
	// exactly one past the image, and later DDL still replicates.
	rep2dir := t.TempDir()
	if err := root.BootstrapReplica(rep2dir, addr, opts); err != nil {
		t.Fatal(err)
	}
	rep2, err := root.OpenWith(rep2dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep2.StartReplica(addr, t.Logf); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("CREATE TABLE notes (id BIGINT, body TEXT) KEY id"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO notes VALUES (1, 'post-image ddl replicates')"); err != nil {
		t.Fatal(err)
	}
	for id := int64(28); id <= 31; id++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, crashTitle(id))); err != nil {
			t.Fatal(err)
		}
	}
	assertEquivalent(t, prim, rep1, "phase 3 replica 1")
	assertEquivalent(t, prim, rep2, "phase 3 replica 2 (image bootstrap)")
	for _, rep := range []*root.DB{rep1, rep2} {
		res, err := rep.NewSession().Exec("SELECT id, body FROM notes ORDER BY id")
		if err != nil {
			t.Fatalf("post-image DDL did not replicate: %v", err)
		}
		if len(res.Rows) != 1 || res.Rows[0][1] != "post-image ddl replicates" {
			t.Fatalf("post-image table content: %v", res.Rows)
		}
	}

	// Phase 4: replica restart — recovery replays the local journal of
	// shipped records, the cursor survives, and the stream resumes.
	if err := rep1.Close(); err != nil {
		t.Fatal(err)
	}
	rep1, err = root.OpenWith(rep1dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep1.StartReplica(addr, t.Logf); err != nil {
		t.Fatal(err)
	}
	for id := int64(32); id <= 35; id++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, crashTitle(id))); err != nil {
			t.Fatal(err)
		}
	}
	assertEquivalent(t, prim, rep1, "phase 4 (restart/resume)")
	defer rep1.Close()

	// Phase 5: PROMOTE — the applier stops at its exact applied
	// position, the read-only gate lifts, and new writes land on top
	// of a byte-identical copy of the primary's state.
	assertEquivalent(t, prim, rep2, "pre-promote drain")
	preCount := len(goldenResults(t, rep2))
	if err := rep2.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := len(goldenResults(t, rep2)); got != preCount {
		t.Fatalf("promote changed served state: %d bytes, was %d", got, preCount)
	}
	psess := rep2.NewSession()
	if _, err := psess.Exec("INSERT INTO papers VALUES (100, 'written on the promoted replica')"); err != nil {
		t.Fatalf("promoted replica rejected a write: %v", err)
	}
	res, err := psess.Exec("SELECT title FROM papers WHERE id = 100")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("promoted replica read-back: %v, %v", res, err)
	}
	// Promoting a non-replica is an error; promoting via SQL works too
	// (rep2 is already promoted, so it reports there is nothing to do).
	if _, err := psess.Exec("PROMOTE"); err == nil || !strings.Contains(err.Error(), "nothing to promote") {
		t.Fatalf("double promote: %v", err)
	}
	if err := rep2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaLagMetrics checks the observability satellite: the
// replica_* gauges and counters exist on every database and move on a
// live replica.
func TestReplicaLagMetrics(t *testing.T) {
	opts := root.OpenOptions{Fsync: "off"}
	prim, err := root.OpenWith(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	// Registered (at zero) even on a database with no replication.
	for _, name := range []string{
		"hazy_replica_apply_batches_total",
		"hazy_replica_apply_records_total",
		"hazy_replica_connected",
		"hazy_replica_lag_bytes",
		"hazy_replica_lag_records",
		"hazy_replica_lag_seconds",
		"hazy_replica_publishes_total",
		"hazy_replica_reconnects_total",
		"hazy_replica_ship_connections",
		"hazy_replica_ship_records_total",
	} {
		if v := metricValue(t, prim, name); v != 0 {
			t.Fatalf("%s = %d on a fresh database", name, v)
		}
	}
	shipper, err := prim.StartShipping("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	repdir := t.TempDir()
	if err := root.BootstrapReplica(repdir, shipper.Addr(), opts); err != nil {
		t.Fatal(err)
	}
	rep, err := root.OpenWith(repdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.StartReplica(shipper.Addr(), t.Logf); err != nil {
		t.Fatal(err)
	}
	if acked, err := runCrashWorkload(prim, crashWorkload()); err != nil || acked == 0 {
		t.Fatalf("workload: %d acked, %v", acked, err)
	}
	waitApplied(t, rep, prim.WALEnd(), "metrics drain")
	if v := metricValue(t, rep, "hazy_replica_apply_records_total"); v == 0 {
		t.Fatal("apply_records_total did not move")
	}
	if v := metricValue(t, rep, "hazy_replica_connected"); v != 1 {
		t.Fatalf("hazy_replica_connected = %d on a live replica", v)
	}
	if v := metricValue(t, prim, "hazy_replica_ship_records_total"); v == 0 {
		t.Fatal("ship_records_total did not move on the primary")
	}
	if v := metricValue(t, prim, "hazy_replica_ship_connections"); v != 1 {
		t.Fatalf("hazy_replica_ship_connections = %d with one replica attached", v)
	}
	// SHOW STATS FOR replica surfaces the same collectors as rows.
	res, err := rep.NewSession().Exec("SHOW STATS FOR replica")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0], "hazy_replica_") {
			found = true
		}
	}
	if !found {
		t.Fatalf("SHOW STATS FOR replica returned no replica collectors: %v", res.Rows)
	}
}

// startCaughtUpReplica runs the crash workload on a fresh primary —
// a main-memory view lv and an on-disk striped view sv over the same
// tables — and returns it with a replica drained to its WAL tip.
func startCaughtUpReplica(t *testing.T) (prim, rep *root.DB) {
	t.Helper()
	opts := root.OpenOptions{Fsync: "off"}
	prim, err := root.OpenWith(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })
	shipper, err := prim.StartShipping("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	repdir := t.TempDir()
	if err := root.BootstrapReplica(repdir, shipper.Addr(), opts); err != nil {
		t.Fatal(err)
	}
	if rep, err = root.OpenWith(repdir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	if err := rep.StartReplica(shipper.Addr(), t.Logf); err != nil {
		t.Fatal(err)
	}
	ops := crashWorkload()
	if acked, err := runCrashWorkload(prim, ops); err != nil || acked != len(ops) {
		t.Fatalf("workload: %d/%d acked, %v", acked, len(ops), err)
	}
	assertEquivalent(t, prim, rep, "replica drain")
	return prim, rep
}

// execWithin answers one protocol line, failing the test if the
// answer takes longer than d.
func execWithin(t *testing.T, srv *server.Server, line string, d time.Duration) string {
	t.Helper()
	done := make(chan string, 1)
	go func() {
		out, _ := srv.Exec(line)
		done <- out
	}()
	select {
	case out := <-done:
		return out
	case <-time.After(d):
		t.Fatalf("%q did not answer within %v", line, d)
		return ""
	}
}

// TestReplicaVerbsReadPublishedSnapshot: on a replica the applier
// owns the live structures and serializes on the statement mutex, so
// reads of a main-memory view must come from the snapshot it
// republishes — for the wire verbs exactly as for SQL. With the
// mutex held, every read verb still answers at once, and answers what
// SQL answers; the on-disk view, which replicas do not publish, still
// binds live.
func TestReplicaVerbsReadPublishedSnapshot(t *testing.T) {
	prim, rep := startCaughtUpReplica(t)
	sess := rep.NewSession()
	sqlCol := func(q string) []string {
		t.Helper()
		res, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var col []string
		for _, row := range res.Rows {
			col = append(col, row[0])
		}
		return col
	}
	sorted := func(ids []string) string { slices.Sort(ids); return strings.Join(ids, " ") }

	// The expected answers: SQL for reads, the primary's own CLASSIFY
	// (same trained model), and the Go binding's counters.
	want := map[string]string{
		"COUNT lv":       sqlCol("SELECT COUNT(*) FROM lv WHERE class = 1")[0],
		"UNCERTAIN lv 3": strings.Join(sqlCol("SELECT id FROM lv ORDER BY ABS(eps) LIMIT 3"), " "),
	}
	for id := 1; id <= 14; id++ {
		label := "-1"
		if sqlCol(fmt.Sprintf("SELECT class FROM lv WHERE id = %d", id))[0] == "1" {
			label = "+1"
		}
		want[fmt.Sprintf("LABEL lv %d", id)] = label
	}
	const text = "CLASSIFY relational database query optimization"
	psrv := server.New(prim, server.Options{DefaultView: "lv"})
	if want[text], _ = psrv.Exec(text); want[text] != "+1" && want[text] != "-1" {
		t.Fatalf("primary %s = %q", text, want[text])
	}
	bv, err := sess.Bind("lv")
	if err != nil {
		t.Fatal(err)
	}
	if bv.Live() {
		t.Fatal("a replica's main-memory view bound live")
	}
	st, _ := bv.ViewStats()
	want["STATS lv"] = fmt.Sprintf("updates=%d reorgs=%d band=%d", st.Updates, st.Reorgs, st.BandTuples)
	members := sorted(sqlCol("SELECT id FROM lv WHERE class = 1"))

	mu := rep.StatementMu()
	mu.Lock()
	defer mu.Unlock()
	srv := server.New(rep, server.Options{DefaultView: "lv"})
	for line, w := range want {
		if got := execWithin(t, srv, line, time.Second); got != w {
			t.Errorf("%s = %q, want %q", line, got, w)
		}
	}
	if got := execWithin(t, srv, "MEMBERS lv", time.Second); sorted(strings.Fields(got)) != members {
		t.Errorf("MEMBERS lv = %q, want the ids {%s}", got, members)
	}
	// Writes are refused by the read-only gate, also without the mutex.
	if got := execWithin(t, srv, "TRAIN lv 1 1", time.Second); !strings.Contains(got, "read-only replica") {
		t.Errorf("TRAIN on a replica = %q, want a read-only refusal", got)
	}
	for view, origin := range map[string]string{"lv": "snapshot", "sv": "live"} {
		plan := strings.Join(sqlCol("EXPLAIN SELECT class FROM "+view+" WHERE id = 1"), "\n")
		if !strings.Contains(plan, view+", "+origin) {
			t.Errorf("EXPLAIN on %s = %q, want origin %s", view, plan, origin)
		}
	}
}

// TestReplicaVerbsDuringApply: read verbs on a replica's main-memory
// view run while the applier replays a stream of inserts; run under
// -race it checks that the lock-free verb path shares nothing
// unsynchronized with the applier.
func TestReplicaVerbsDuringApply(t *testing.T) {
	prim, rep := startCaughtUpReplica(t)
	srv := server.New(rep, server.Options{DefaultView: "lv"})
	lines := []string{"LABEL lv 1", "COUNT lv", "MEMBERS lv", "UNCERTAIN lv 3",
		"CLASSIFY operating system kernel", "STATS lv"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if out, _ := srv.Exec(lines[i%len(lines)]); strings.HasPrefix(out, "ERR") {
					t.Errorf("%s during apply: %s", lines[i%len(lines)], out)
					return
				}
			}
		}(r)
	}
	sess := prim.NewSession()
	for id := int64(100); id < 300; id++ {
		for _, q := range []string{
			fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, crashTitle(id)),
			fmt.Sprintf("INSERT INTO feedback VALUES (%d, %d)", id, 1-2*(id%2)),
		} {
			if _, err := sess.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertEquivalent(t, prim, rep, "after concurrent verbs")
}
