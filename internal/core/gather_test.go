package core

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

// fakeRowCursor streams fixed entries and records whether it was closed.
type fakeRowCursor struct {
	rows   []SnapEntry
	i      int
	closed bool
}

func (c *fakeRowCursor) Next() (SnapEntry, bool, error) {
	if c.i >= len(c.rows) {
		return SnapEntry{}, false, nil
	}
	c.i++
	return c.rows[c.i-1], true, nil
}

func (c *fakeRowCursor) NextBatch(dst []SnapEntry) (int, error) {
	n := copy(dst, c.rows[c.i:])
	c.i += n
	return n, nil
}

func (c *fakeRowCursor) Close() { c.closed = true }

// gatherStripes opens gatherCursors over fresh cursors on each stripe.
func gatherStripes(t *testing.T, stripes [][]SnapEntry) RowCursor {
	t.Helper()
	cur, err := gatherCursors(len(stripes), func(i int) (RowCursor, error) {
		return &fakeRowCursor{rows: stripes[i]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// drainNext reads a cursor to exhaustion through Next.
func drainNext(t *testing.T, cur RowCursor) []SnapEntry {
	t.Helper()
	var out []SnapEntry
	for {
		e, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestGatherCursorsOrder: the gathered stream is in global (eps, id)
// order, eps ties across stripes are broken by id, and empty stripes
// (or all of them) contribute nothing.
func TestGatherCursorsOrder(t *testing.T) {
	cases := []struct {
		name    string
		stripes [][]SnapEntry
		want    []int64
	}{
		{
			name: "interleaved with cross-stripe ties",
			stripes: [][]SnapEntry{
				{{ID: 4, Eps: -0.9, Label: -1}, {ID: 2, Eps: 0.1, Label: 1}, {ID: 6, Eps: 1.2, Label: 1}},
				{{ID: 1, Eps: -0.3, Label: -1}, {ID: 7, Eps: 0.1, Label: 1}},
				{{ID: 5, Eps: -0.05, Label: -1}, {ID: 0, Eps: 0.1, Label: 1}, {ID: 3, Eps: 0.8, Label: 1}},
			},
			want: []int64{4, 1, 5, 0, 2, 7, 3, 6},
		},
		{
			name:    "empty stripes",
			stripes: [][]SnapEntry{nil, {{ID: 9, Eps: 0.5}, {ID: 8, Eps: 0.7}}, nil, {{ID: 1, Eps: 0.5}}},
			want:    []int64{1, 9, 8},
		},
		{name: "all stripes empty", stripes: [][]SnapEntry{nil, nil, nil}},
		{name: "one stripe", stripes: [][]SnapEntry{{{ID: 3, Eps: -1}, {ID: 2, Eps: 1}}}, want: []int64{3, 2}},
	}
	for _, c := range cases {
		cur := gatherStripes(t, c.stripes)
		var ids []int64
		for _, e := range drainNext(t, cur) {
			ids = append(ids, e.ID)
		}
		cur.Close()
		if !reflect.DeepEqual(ids, c.want) {
			t.Errorf("%s: ids = %v, want %v", c.name, ids, c.want)
		}
	}
}

// TestGatherCursorsNextBatchMatchesNext: bulk reads of any width
// return exactly the row-at-a-time stream.
func TestGatherCursorsNextBatchMatchesNext(t *testing.T) {
	stripes := make([][]SnapEntry, 4)
	for i := 0; i < 40; i++ {
		e := SnapEntry{ID: int64(i), Eps: float64(i%7) - 3, Label: 1}
		stripes[i%4] = append(stripes[i%4], e)
	}
	for _, s := range stripes {
		sort.Slice(s, func(a, b int) bool { return snapLess(s[a], s[b]) })
	}
	want := drainNext(t, gatherStripes(t, stripes))
	if len(want) != 40 {
		t.Fatalf("Next stream has %d rows, want 40", len(want))
	}
	for _, size := range []int{1, 2, 3, 7} {
		cur := gatherStripes(t, stripes)
		var got []SnapEntry
		buf := make([]SnapEntry, size)
		for {
			n, err := cur.NextBatch(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		cur.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NextBatch(len %d) = %v\nwant %v", size, got, want)
		}
	}
}

// TestGatherCursorsOpenFailureClosesOpened: when opening stripe k
// fails, the cursors already open for stripes < k are closed.
func TestGatherCursorsOpenFailureClosesOpened(t *testing.T) {
	boom := errors.New("boom")
	var opened []*fakeRowCursor
	_, err := gatherCursors(4, func(i int) (RowCursor, error) {
		if i == 2 {
			return nil, boom
		}
		c := &fakeRowCursor{rows: []SnapEntry{{ID: int64(i)}}}
		opened = append(opened, c)
		return c, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(opened) != 2 {
		t.Fatalf("opened %d cursors before the failure, want 2", len(opened))
	}
	for i, c := range opened {
		if !c.closed {
			t.Errorf("stripe %d cursor left open", i)
		}
	}
}
