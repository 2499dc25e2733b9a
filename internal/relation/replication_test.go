package relation

import (
	"fmt"
	"maps"
	"testing"

	"hazy/internal/wal"
)

// rowsOf reads a two-column (id, name) table into a map.
func rowsOf(t *testing.T, db *DB, name string) map[int64]string {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int64]string{}
	if err := tbl.Scan(func(tup Tuple) error {
		rows[tup[0].(int64)] = tup[1].(string)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestApplyShippedRedoOnce: a replica applies a primary's insert,
// update and delete records through ApplyShipped, each delivered
// twice. Every trigger fires exactly once, and the replica holds the
// rows that recovering the primary's log produces — before and after
// the replica itself recovers from its journal after a crash.
func TestApplyShippedRedoOnce(t *testing.T) {
	schema, err := NewSchema([]Column{{"id", TInt64}, {"name", TString}}, "id")
	if err != nil {
		t.Fatal(err)
	}
	pdir := t.TempDir()
	prim, err := OpenDB(pdir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	ptbl, err := prim.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	start := prim.LogEnd()
	for i := int64(1); i <= 5; i++ {
		if err := ptbl.Insert(Tuple{i, fmt.Sprint("row ", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ptbl.Update(Tuple{int64(2), "updated"}); err != nil {
		t.Fatal(err)
	}
	if err := ptbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	if err := prim.Log().Replay(start, func(_ wal.Pos, payload []byte) error {
		if Shippable(payload) {
			records = append(records, append([]byte(nil), payload...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(records) != 7 {
		t.Fatalf("primary logged %d shippable records, want 7", len(records))
	}

	rdir := t.TempDir()
	rep, err := OpenDB(rdir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rtbl, err := rep.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	fired := map[TriggerEvent]int{}
	rtbl.AddTrigger(func(ev TriggerEvent, _, _ Tuple) error {
		fired[ev]++
		return nil
	})
	var last wal.Pos
	for i, rec := range records {
		last = wal.Pos{Seg: 1, Off: int64(i + 1)}
		for range 2 {
			if _, err := rep.ApplyShipped(last, rec); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
	}
	if err := rep.CommitLog(); err != nil {
		t.Fatal(err)
	}
	if want := map[TriggerEvent]int{AfterInsert: 5, AfterUpdate: 1, AfterDelete: 1}; !maps.Equal(fired, want) {
		t.Fatalf("triggers fired %v, want %v", fired, want)
	}

	// The primary's own recovery of the same log is the oracle.
	recovered, err := OpenDB(pdir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if _, err := recovered.Recover(); err != nil {
		t.Fatal(err)
	}
	want := rowsOf(t, recovered, "t")
	if len(want) != 4 || want[2] != "updated" {
		t.Fatalf("recovered primary rows %v", want)
	}
	if got := rowsOf(t, rep, "t"); !maps.Equal(got, want) {
		t.Fatalf("replica rows %v, recovered primary %v", got, want)
	}
	// Reopen without a Close: the replica's rows and cursor come back
	// from redoing its journal of shipped records.
	rep2, err := OpenDB(rdir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if _, err := rep2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, rep2, "t"); !maps.Equal(got, want) {
		t.Fatalf("recovered replica rows %v, want %v", got, want)
	}
	if got := rep2.LastShipped(); got != last {
		t.Fatalf("recovered resume cursor %+v, want %+v", got, last)
	}
}
