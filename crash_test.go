// Crash-safety suite: hundreds of synthesized crash points — every
// byte offset of a recorded WAL, and deterministic fault injection at
// every Nth file write — each followed by a real recovery (hazy.Open)
// and the same two assertions: the catalog reopens as an exact prefix
// of the submitted workload, and the rebuilt classification view (its
// labels, members set, and ε-index) agrees with a full rescan of the
// recovered tables.
package hazy_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	root "hazy"
	"hazy/internal/core"
	"hazy/internal/storage"
	"hazy/internal/storage/faultfs"
)

// A crashOp is one statement of the mixed workload: table DDL, entity
// ADDs, the CREATE VIEW, a CHECKPOINT, and TRAINs.
type crashOp struct {
	stmt  string
	kind  byte // 'D' DDL/CHECKPOINT, 'E' entity insert, 'X' example insert
	id    int64
	text  string
	label int64
}

// crashTitle generates deterministic entity text: even ids lean
// database-flavored, odd ids systems-flavored, so the view's model
// has signal.
func crashTitle(id int64) string {
	if id%2 == 0 {
		return fmt.Sprintf("relational database query optimization paper %d", id)
	}
	return fmt.Sprintf("operating system kernel scheduling notes %d", id)
}

// crashWorkload is the submitted op sequence: mixed DDL, ADD (entity
// inserts), CREATE VIEW mid-stream, an explicit CHECKPOINT, and TRAIN
// (example inserts), all single-row so one op is one WAL record.
func crashWorkload() []crashOp {
	ops := []crashOp{
		{kind: 'D', stmt: "CREATE TABLE papers (id BIGINT, title TEXT) KEY id"},
		{kind: 'D', stmt: "CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id"},
	}
	addEntity := func(id int64) {
		ops = append(ops, crashOp{
			kind: 'E', id: id, text: crashTitle(id),
			stmt: fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, crashTitle(id)),
		})
	}
	addTrain := func(id int64) {
		label := int64(1)
		if id%2 != 0 {
			label = -1
		}
		ops = append(ops, crashOp{
			kind: 'X', id: id, label: label,
			stmt: fmt.Sprintf("INSERT INTO feedback VALUES (%d, %d)", id, label),
		})
	}
	for id := int64(1); id <= 6; id++ {
		addEntity(id)
	}
	ops = append(ops, crashOp{kind: 'D', stmt: `CREATE CLASSIFICATION VIEW lv KEY id
		ENTITIES FROM papers KEY id
		EXAMPLES FROM feedback KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM`})
	for id := int64(1); id <= 4; id++ {
		addTrain(id)
	}
	for id := int64(7); id <= 10; id++ {
		addEntity(id)
	}
	// A second, striped on-disk view over the same tables: every crash
	// point downstream also recovers a disk-resident striped layout
	// (stripe subdirectories, per-stripe clustered B+-trees) from the
	// same WAL prefix.
	ops = append(ops, crashOp{kind: 'D', stmt: `CREATE CLASSIFICATION VIEW sv KEY id
		ENTITIES FROM papers KEY id
		EXAMPLES FROM feedback KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM
		ARCHITECTURE OD PARTITIONS 2`})
	ops = append(ops, crashOp{kind: 'D', stmt: "CHECKPOINT"})
	for id := int64(11); id <= 14; id++ {
		addEntity(id)
		addTrain(id - 6)
	}
	return ops
}

// runCrashWorkload executes ops against db until the first error,
// returning how many were acknowledged (and the error, for fault
// runs).
func runCrashWorkload(db *root.DB, ops []crashOp) (acked int, err error) {
	sess := db.NewSession()
	for i, op := range ops {
		if _, err := sess.Exec(op.stmt); err != nil {
			return i, err
		}
		acked = i + 1
	}
	return acked, nil
}

// recoveredState reads the tables back from a reopened database.
func recoveredState(t *testing.T, db *root.DB) (ents map[int64]string, exs map[int64]int64) {
	t.Helper()
	ents = map[int64]string{}
	exs = map[int64]int64{}
	if et, err := db.EntityTableByName("papers"); err == nil {
		if err := et.Scan(func(id int64, text string) error {
			ents[id] = text
			return nil
		}); err != nil {
			t.Fatalf("scan recovered entities: %v", err)
		}
	}
	if xt, err := db.ExampleTableByName("feedback"); err == nil {
		if err := xt.Scan(func(id int64, label int) error {
			exs[id] = int64(label)
			return nil
		}); err != nil {
			t.Fatalf("scan recovered examples: %v", err)
		}
	}
	return ents, exs
}

func mapsEqualStr(a, b map[int64]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func mapsEqualInt(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// assertPrefixConsistent checks the central crash-consistency claim:
// the recovered tables equal the state after some prefix of the
// submitted ops (K ops applied), with K at least minAcked. It returns
// K.
func assertPrefixConsistent(t *testing.T, db *root.DB, ops []crashOp, minAcked int, desc string) int {
	t.Helper()
	gotEnts, gotExs := recoveredState(t, db)
	simEnts := map[int64]string{}
	simExs := map[int64]int64{}
	for k := 0; k <= len(ops); k++ {
		if k > 0 {
			switch op := ops[k-1]; op.kind {
			case 'E':
				simEnts[op.id] = op.text
			case 'X':
				simExs[op.id] = op.label
			}
		}
		if mapsEqualStr(gotEnts, simEnts) && mapsEqualInt(gotExs, simExs) {
			if k < minAcked {
				// The same state can also match a later prefix whose
				// extra ops are all DDL; scan forward before failing.
				ok := true
				for j := k; j < minAcked; j++ {
					if ops[j].kind != 'D' {
						ok = false
						break
					}
				}
				if !ok {
					t.Fatalf("%s: recovered only %d of %d acknowledged ops", desc, k, minAcked)
				}
			}
			return k
		}
	}
	t.Fatalf("%s: recovered state (%d entities, %d examples) matches no prefix of the workload",
		desc, len(gotEnts), len(gotExs))
	return -1
}

// assertViewsConsistent audits every view of the crash workload: the
// unstriped main-memory lv and the striped on-disk sv.
func assertViewsConsistent(t *testing.T, db *root.DB, desc string) {
	t.Helper()
	assertViewConsistent(t, db, "lv", desc)
	assertViewConsistent(t, db, "sv", desc)
}

// assertViewConsistent checks the rebuilt view against a full rescan:
// every recovered entity has a ±1 label, the members set is exactly
// the +1-labeled ids, and the ε-clustered index covers exactly the
// recovered entities with labels agreeing with point reads. Striped
// views additionally get a per-stripe audit: the stripes partition
// the entity set exactly, with per-stripe labels agreeing too.
func assertViewConsistent(t *testing.T, db *root.DB, name, desc string) {
	t.Helper()
	v, err := db.View(name)
	if err != nil {
		return // crash predates the view declaration
	}
	ents, _ := recoveredState(t, db)
	wantMembers := map[int64]bool{}
	for id := range ents {
		lbl, err := v.Core().Label(id)
		if err != nil {
			t.Fatalf("%s: Label(%d): %v", desc, id, err)
		}
		if lbl != 1 && lbl != -1 {
			t.Fatalf("%s: Label(%d) = %d", desc, id, lbl)
		}
		if lbl == 1 {
			wantMembers[id] = true
		}
	}
	members, err := v.Core().Members()
	if err != nil {
		t.Fatalf("%s: Members: %v", desc, err)
	}
	if len(members) != len(wantMembers) {
		t.Fatalf("%s: %d members, point reads say %d", desc, len(members), len(wantMembers))
	}
	for _, id := range members {
		if !wantMembers[id] {
			t.Fatalf("%s: member %d not labeled +1", desc, id)
		}
	}
	if n, err := v.Core().CountMembers(); err != nil || n != len(members) {
		t.Fatalf("%s: CountMembers = %d, %v (want %d)", desc, n, err, len(members))
	}
	// ε-index vs full rescan: the clustered layout must hold exactly
	// the recovered entities, each with the label its point read
	// reports and the eps its point lookup reports.
	if ei, ok := v.Core().(core.EpsIndexed); ok && ei.Clustered() {
		cur, err := ei.ScanEps(math.Inf(-1), math.Inf(1))
		if err != nil {
			t.Fatalf("%s: ScanEps: %v", desc, err)
		}
		seen := map[int64]bool{}
		for {
			e, ok, err := cur.Next()
			if err != nil {
				t.Fatalf("%s: eps cursor: %v", desc, err)
			}
			if !ok {
				break
			}
			if seen[e.ID] {
				t.Fatalf("%s: id %d twice in eps index", desc, e.ID)
			}
			seen[e.ID] = true
			if _, there := ents[e.ID]; !there {
				t.Fatalf("%s: eps index has phantom id %d", desc, e.ID)
			}
			lbl, _ := v.Core().Label(e.ID)
			if int(e.Label) != lbl {
				t.Fatalf("%s: eps index label %d for id %d, point read %d", desc, e.Label, e.ID, lbl)
			}
			if eps, err := ei.EpsOf(e.ID); err != nil || eps != e.Eps {
				t.Fatalf("%s: EpsOf(%d) = %v, %v; index scan says %v", desc, e.ID, eps, err, e.Eps)
			}
		}
		cur.Close()
		if len(seen) != len(ents) {
			t.Fatalf("%s: eps index covers %d ids, tables have %d", desc, len(seen), len(ents))
		}
	}
	// Striped views: the stripes must partition the recovered entity
	// set exactly — every id in exactly one stripe's clustered index,
	// with the stripe-local label agreeing with the point read.
	if sv, ok := v.Core().(*core.StripedView); ok {
		owner := map[int64]int{}
		for i := 0; i < sv.Stripes(); i++ {
			cur, err := sv.ScanEpsStripe(i, math.Inf(-1), math.Inf(1))
			if err != nil {
				t.Fatalf("%s: ScanEpsStripe(%d): %v", desc, i, err)
			}
			for {
				e, ok, err := cur.Next()
				if err != nil {
					t.Fatalf("%s: stripe %d cursor: %v", desc, i, err)
				}
				if !ok {
					break
				}
				if prev, dup := owner[e.ID]; dup {
					t.Fatalf("%s: id %d in stripes %d and %d", desc, e.ID, prev, i)
				}
				owner[e.ID] = i
				lbl, _ := v.Core().Label(e.ID)
				if int(e.Label) != lbl {
					t.Fatalf("%s: stripe %d label %d for id %d, point read %d", desc, i, e.Label, e.ID, lbl)
				}
			}
			cur.Close()
		}
		if len(owner) != len(ents) {
			t.Fatalf("%s: stripes cover %d ids, tables have %d", desc, len(owner), len(ents))
		}
	}
	// And through the SQL surface.
	sess := db.NewSession()
	res, err := sess.Exec(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE class = 1", name))
	if err != nil {
		t.Fatalf("%s: SQL count: %v", desc, err)
	}
	if want := fmt.Sprint(len(members)); res.Rows[0][0] != want {
		t.Fatalf("%s: SQL members count %s, want %s", desc, res.Rows[0][0], want)
	}
}

// copyDir copies a database directory file by file — the moral
// equivalent of imaging the disk at the instant of a crash.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixWALTruncation records the mixed workload's WAL, then
// for every byte offset truncates a copy there, reopens, and asserts
// prefix consistency plus view/ε-index agreement — the satellite
// crash matrix. The workload runs with fsync off (byte truncation
// itself synthesizes the lost tail), one segment, no clean Close.
func TestCrashMatrixWALTruncation(t *testing.T) {
	ops := crashWorkload()
	src := t.TempDir()
	db, err := root.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if acked, err := runCrashWorkload(db, ops); err != nil || acked != len(ops) {
		t.Fatalf("workload: %d/%d acked, %v", acked, len(ops), err)
	}
	// No db.Close(): a close would checkpoint, flush, and prune — the
	// crash image must keep its unflushed tail in the log. (The open
	// handle leaks into the test process; the files on disk are
	// exactly what a kill -9 here would leave.)
	segPath := filepath.Join(src, "wal", "wal-00000001.seg")
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 17
	}
	if raceEnabled {
		// The race build covers the mechanism on a sparse sample; the
		// CI crash-safety job sweeps every byte without instrumentation.
		stride *= 23
	}
	points := 0
	for cut := 0; cut < len(seg); cut += stride {
		desc := fmt.Sprintf("truncate@%d", cut)
		dst := t.TempDir()
		copyDir(t, src, dst)
		if err := os.WriteFile(filepath.Join(dst, "wal", "wal-00000001.seg"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := root.Open(dst)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", desc, err)
		}
		assertPrefixConsistent(t, rdb, ops, 0, desc)
		assertViewsConsistent(t, rdb, desc)
		if err := rdb.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", desc, err)
		}
		// Recovery must be repeatable: a second open over the now
		// checkpointed directory sees the same state.
		rdb2, err := root.Open(dst)
		if err != nil {
			t.Fatalf("%s: second recovery failed: %v", desc, err)
		}
		k1 := assertPrefixConsistent(t, rdb2, ops, 0, desc+"/reopen")
		rdb2.Close()
		_ = k1
		points++
	}
	if !testing.Short() && !raceEnabled && points < 200 {
		t.Fatalf("crash matrix synthesized only %d points (WAL of %d bytes)", points, len(seg))
	}
	t.Logf("crash matrix: %d truncation points over a %d-byte WAL", points, len(seg))
}

// TestFaultInjectionCrashPoints sweeps deterministic crash and
// torn-write faults across every Nth file mutation of the workload in
// full-durability mode (fsync always), reopening and asserting after
// each: recovery must land on a prefix that includes every
// acknowledged op — the fsync contract.
func TestFaultInjectionCrashPoints(t *testing.T) {
	ops := crashWorkload()
	open := func(dir string, vfs storage.VFS) (*root.DB, error) {
		return root.OpenWith(dir, root.OpenOptions{Fsync: "always", VFS: vfs})
	}
	// Probe: count the workload's total mutating file ops fault-free.
	probe := faultfs.New(storage.OS, 0, faultfs.Crash)
	{
		dir := t.TempDir()
		db, err := open(dir, probe)
		if err != nil {
			t.Fatal(err)
		}
		if acked, err := runCrashWorkload(db, ops); err != nil || acked != len(ops) {
			t.Fatalf("probe workload: %d acked, %v", acked, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	total := probe.Writes()
	if total < 60 {
		t.Fatalf("workload makes only %d file mutations — sweep too small", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	if raceEnabled {
		stride *= 11
	}
	points := 0
	for _, mode := range []faultfs.Mode{faultfs.Crash, faultfs.Torn} {
		for n := int64(1); n <= total; n += stride {
			desc := fmt.Sprintf("%v@%d", mode, n)
			dir := t.TempDir()
			fs := faultfs.New(storage.OS, n, mode)
			acked := 0
			db, err := open(dir, fs)
			if err == nil {
				// The fault may strike mid-workload (some ops acked)
				// or only during Close's shutdown checkpoint (all ops
				// acked) — both are valid crash points. Close with the
				// fault armed mutates nothing (every write fails) but
				// releases file handles.
				acked, err = runCrashWorkload(db, ops)
				db.Close()
			}
			if err != nil && !errors.Is(err, faultfs.ErrInjected) {
				// The injected error must surface as itself, wrapped
				// however deep in the stack it struck.
				t.Fatalf("%s: fault surfaced as foreign error: %v", desc, err)
			}
			rdb, rerr := root.Open(dir)
			if rerr != nil {
				t.Fatalf("%s: recovery failed: %v", desc, rerr)
			}
			assertPrefixConsistent(t, rdb, ops, acked, desc)
			assertViewsConsistent(t, rdb, desc)
			rdb.Close()
			points++
		}
	}
	if !testing.Short() && !raceEnabled && points < 100 {
		t.Fatalf("fault sweep synthesized only %d points", points)
	}
	t.Logf("fault sweep: %d crash points over %d file mutations × 2 modes", points, total)
}

// TestCheckpointDuringConcurrentReadsAndIngest is the -race
// satellite: SQL reads stream from snapshots and internally locked
// tables while the engine ingests and checkpoints fire mid-scan.
func TestCheckpointDuringConcurrentReadsAndIngest(t *testing.T) {
	dir := t.TempDir()
	db, err := root.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	for _, stmt := range []string{
		"CREATE TABLE papers (id BIGINT, title TEXT) KEY id",
		"CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id",
	} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 40; id++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, crashTitle(id))); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 10; id++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO feedback VALUES (%d, %d)", id, 1-2*(id%2))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Exec(`CREATE CLASSIFICATION VIEW lv KEY id
		ENTITIES FROM papers KEY id
		EXAMPLES FROM feedback KEY id LABEL label
		FEATURE FUNCTION tf_bag_of_words USING SVM`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("ATTACH ENGINE TO lv"); err != nil {
		t.Fatal(err)
	}

	const newEntities = 150
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 8)

	// Readers: every plan shape, engined snapshots and table scans.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rs := db.NewSession()
			stmts := []string{
				"SELECT COUNT(*) FROM lv WHERE class = 1",
				"SELECT id FROM lv WHERE eps >= -10.0 AND eps <= 10.0 LIMIT 5",
				fmt.Sprintf("SELECT class FROM lv WHERE id = %d", r+1),
				"SELECT COUNT(*) FROM papers",
				"SELECT id FROM feedback WHERE label = 1 LIMIT 3",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rs.Exec(stmts[i%len(stmts)]); err != nil {
					fail <- fmt.Errorf("reader: %w", err)
					return
				}
			}
		}(r)
	}
	// Ingester: async ADD + TRAIN through the engine, one flush at end.
	writers.Add(1)
	go func() {
		defer writers.Done()
		ws, err := db.NewSession().Bind("lv")
		if err != nil {
			fail <- err
			return
		}
		for i := int64(0); i < newEntities; i++ {
			id := 100 + i
			if err := ws.AddAsync(id, crashTitle(id)); err != nil {
				fail <- fmt.Errorf("add: %w", err)
				return
			}
			if err := ws.TrainAsync(id, 1-2*int(id%2)); err != nil {
				fail <- fmt.Errorf("train: %w", err)
				return
			}
		}
		if err := ws.Flush(); err != nil {
			fail <- fmt.Errorf("flush: %w", err)
		}
	}()
	// Checkpointer: fires repeatedly mid-everything.
	writers.Add(1)
	go func() {
		defer writers.Done()
		cs := db.NewSession()
		for i := 0; i < 25; i++ {
			if _, err := cs.Exec("CHECKPOINT"); err != nil {
				fail <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()

	// Readers loop until the writers (ingester + checkpointer) finish.
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acknowledged must be on disk.
	rdb, err := root.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	ents, exs := recoveredState(t, rdb)
	if len(ents) != 40+newEntities {
		t.Fatalf("recovered %d entities, want %d", len(ents), 40+newEntities)
	}
	if len(exs) != 10+newEntities {
		t.Fatalf("recovered %d examples, want %d", len(exs), 10+newEntities)
	}
	assertViewConsistent(t, rdb, "lv", "post-concurrency")
}
