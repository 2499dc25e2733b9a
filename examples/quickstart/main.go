// Quickstart: the paper's §2.1 workflow through the Session API —
// declare tables and a classification view in SQL, feed user
// feedback with plain INSERTs, query the view with SELECT, and
// attach a concurrent maintenance engine to it, all through the same
// front door the hazyql REPL and the hazyd server use. Go callers
// read through Session.Bind (BoundView.Label, …), the same binding
// the SQL planner and the wire verbs use; DB.View's ClassView handle
// exposes the view's definition and maintenance counters.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"hazy"
)

func main() {
	dir, err := os.MkdirTemp("", "hazy-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := hazy.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sess := db.NewSession()

	exec := func(stmt string) *hazy.Result {
		res, err := sess.Exec(stmt)
		if err != nil {
			log.Fatalf("%s\n→ %v", stmt, err)
		}
		return res
	}

	// The In relation and the training-examples relation.
	exec(`CREATE TABLE papers (id BIGINT, title TEXT) KEY id`)
	exec(`CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id`)
	titles := map[int64]string{
		1: "efficient query optimization for relational database systems",
		2: "a scalable kernel scheduler for multicore operating systems",
		3: "incremental sql view maintenance with database triggers",
		4: "low latency kernel interrupt handling in device drivers",
		5: "query rewriting and index selection for relational database workloads",
		6: "kernel page replacement policies for operating systems",
		7: "sql transaction processing in relational database engines",
		8: "filesystem scheduler tuning inside the operating systems kernel",
	}
	for id, title := range titles {
		exec(fmt.Sprintf("INSERT INTO papers VALUES (%d, '%s')", id, title))
	}

	// CREATE CLASSIFICATION VIEW labeled_papers ... (Example 2.1).
	exec(`CREATE CLASSIFICATION VIEW labeled_papers KEY id
	      ENTITIES FROM papers KEY id
	      EXAMPLES FROM feedback KEY id LABEL label
	      FEATURE FUNCTION tf_bag_of_words USING SVM`)

	// Serve it concurrently: reads come lock-free from published
	// snapshots, writes batch through the engine's queue — and the
	// INSERT statements below route through it automatically.
	exec(`ATTACH ENGINE TO labeled_papers`)

	// Feedback: a few papers labeled database (+1) or not (−1). Each
	// insert retrains the model incrementally and maintains the view —
	// the paper's type-2 dynamic data.
	exec(`INSERT INTO feedback VALUES (1, 1), (2, -1), (3, 1), (4, -1)`)

	// Single Entity reads: "is paper 5 a database paper?"
	for _, id := range []int64{5, 6, 7, 8} {
		res := exec(fmt.Sprintf("SELECT class FROM labeled_papers WHERE id = %d", id))
		verdict := "no "
		if res.Rows[0][0] == "1" {
			verdict = "yes"
		}
		fmt.Printf("paper %d: database? %s  (%q)\n", id, verdict, titles[id])
	}

	// All Members: "return all database papers."
	res := exec(`SELECT id FROM labeled_papers WHERE class = 1`)
	var members []string
	for _, row := range res.Rows {
		members = append(members, row[0])
	}
	fmt.Printf("database papers: [%s]\n", strings.Join(members, " "))

	// New entities arriving later are classified on insert (type-1
	// dynamic data) — synchronously through the engine, so the read
	// right after sees the write.
	exec(`INSERT INTO papers VALUES (9, 'cost based query optimization of sql database views')`)
	res = exec(`SELECT class FROM labeled_papers WHERE id = 9`)
	fmt.Printf("late-arriving paper 9 classified: %s\n", res.Rows[0][0])

	// The Go handles see the same catalog the SQL surface built.
	exec(`DETACH ENGINE FROM labeled_papers`)
	view, err := db.View("labeled_papers")
	if err != nil {
		log.Fatal(err)
	}
	st := view.Stats()
	fmt.Printf("maintenance: %d updates, %d reorganizations, band [%0.3f, %0.3f]\n",
		st.Updates, st.Reorgs, st.LowWater, st.HighWater)
}
