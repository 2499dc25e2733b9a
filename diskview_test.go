package hazy

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// viewDirBytes sums the sizes of every file under dir.
func viewDirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReopenKeepsViewFilesBounded: an on-disk or hybrid view is
// recomputed from the tables at every open (§3.5.1), so reopening must
// not grow its directory — the generation files a previous process
// left behind are cleared instead of appended to.
func TestReopenKeepsViewFilesBounded(t *testing.T) {
	for _, arch := range []string{"OD", "HYBRID"} {
		t.Run(arch, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := db.NewSession()
			mustExec(t, s, "CREATE TABLE p (id BIGINT, title TEXT) KEY id")
			mustExec(t, s, "CREATE TABLE f (id BIGINT, label BIGINT) KEY id")
			r := rand.New(rand.NewSource(3))
			for id := int64(0); id < 600; id++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO p VALUES (%d, '%s')", id, title(r, id%2 == 0)))
			}
			for id := int64(0); id < 20; id++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO f VALUES (%d, %d)", id, 1-2*(id%2)))
			}
			mustExec(t, s, `CREATE CLASSIFICATION VIEW v KEY id
				ENTITIES FROM p KEY id EXAMPLES FROM f KEY id LABEL label
				FEATURE FUNCTION tf_bag_of_words USING SVM ARCHITECTURE `+arch)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			viewDir := filepath.Join(dir, "view-v")
			want := viewDirBytes(t, viewDir)
			for reopen := 1; reopen <= 3; reopen++ {
				db, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if got := viewDirBytes(t, viewDir); got != want {
					t.Fatalf("reopen %d: view directory holds %d bytes, %d after the first build", reopen, got, want)
				}
			}
		})
	}
}

// TestReplicaServesDiskViewsLive: a replica publishes serving
// snapshots for main-memory views only — an on-disk view stays on
// disk and is read live — and its SELECTs still equal the primary's.
func TestReplicaServesDiskViewsLive(t *testing.T) {
	opts := OpenOptions{Fsync: "off"}
	prim, err := OpenWith(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	shipper, err := prim.StartShipping("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	repDir := t.TempDir()
	if err := BootstrapReplica(repDir, shipper.Addr(), opts); err != nil {
		t.Fatal(err)
	}
	rep, err := OpenWith(repDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.StartReplica(shipper.Addr(), t.Logf); err != nil {
		t.Fatal(err)
	}

	s := prim.NewSession()
	mustExec(t, s, "CREATE TABLE p (id BIGINT, title TEXT) KEY id")
	mustExec(t, s, "CREATE TABLE f (id BIGINT, label BIGINT) KEY id")
	r := rand.New(rand.NewSource(8))
	for id := int64(0); id < 40; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO p VALUES (%d, '%s')", id, title(r, id%2 == 0)))
	}
	for _, decl := range []string{"mv", "dv ARCHITECTURE OD PARTITIONS 2"} {
		name, clause, _ := strings.Cut(decl, " ")
		mustExec(t, s, fmt.Sprintf(`CREATE CLASSIFICATION VIEW %s KEY id
			ENTITIES FROM p KEY id EXAMPLES FROM f KEY id LABEL label
			FEATURE FUNCTION tf_bag_of_words USING SVM %s`, name, clause))
	}
	for id := int64(0); id < 16; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO f VALUES (%d, %d)", id, 1-2*(id%2)))
	}

	deadline := time.Now().Add(30 * time.Second)
	for rep.AppliedPos().Before(prim.WALEnd()) {
		if err := rep.ReplicaErr(); err != nil {
			t.Fatalf("replica stream died: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("replica did not catch up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queries := []string{
		"SELECT id, class FROM $V ORDER BY id",
		"SELECT COUNT(*) FROM $V WHERE class = 1",
		"SELECT class FROM $V WHERE id = 7",
	}
	results := func(db *DB, view string) string {
		// Live reads of the replica's on-disk view run under the
		// statement lock the applier takes.
		db.StatementMu().Lock()
		defer db.StatementMu().Unlock()
		out := ""
		for _, q := range queries {
			out += fmt.Sprint(mustExec(t, db.NewSession(), strings.ReplaceAll(q, "$V", view)).Rows)
		}
		return out
	}
	for _, view := range []string{"mv", "dv"} {
		want := results(prim, view)
		for got := results(rep, view); got != want; got = results(rep, view) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica %s, primary %s", view, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for view, published := range map[string]bool{"mv": true, "dv": false} {
		cv, err := rep.View(view)
		if err != nil {
			t.Fatal(err)
		}
		if got := cv.pub.Load() != nil; got != published {
			t.Fatalf("replica view %s: published snapshot = %v, want %v", view, got, published)
		}
	}
}
