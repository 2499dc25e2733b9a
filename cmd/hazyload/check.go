package main

import (
	"fmt"
	"strconv"
	"strings"
)

// verify checks the served database over the wire, counting every
// question into rep.Attempted and every wrong answer into rep.Failed:
//
//   - for checkSample seeded ids, LABEL id equals CLASSIFY of that
//     entity's own title — the paper's contract, label = sign(w·f − b)
//     under the current model, whatever maintenance did to get there;
//   - COUNT equals the length of MEMBERS;
//   - the entity table holds wantEntities rows: everything loaded plus
//     every acknowledged insert. Run again after Close and reopen, the
//     same three checks are the durability check for acked writes.
//
// It returns an error only when the connection itself fails.
func verify(st *stack, w *workload, c *corpus, seed uint64, wantEntities int, rep *report) error {
	cl, err := st.dial()
	if err != nil {
		return err
	}
	defer cl.Close()
	ask := func(line string) (string, error) {
		rep.Attempted++
		reply, err := cl.Do(line)
		if err != nil && !strings.HasPrefix(err.Error(), "server: ") {
			return "", err // transport, not an ERR reply
		}
		if err != nil {
			rep.fail(1, fmt.Sprintf("%s -> %v", clip(line), err))
		}
		return reply, nil
	}
	if w.engine {
		if _, err := ask("FLUSH"); err != nil {
			return err
		}
	}
	r := fork(seed, 0x3ff)
	mismatches := 0
	for i := 0; i < checkSample; i++ {
		id := int64(r.intn(w.entities)) + 1
		label, err := ask(fmt.Sprintf("LABEL %d", id))
		if err != nil {
			return err
		}
		class, err := ask("CLASSIFY " + c.title(id))
		if err != nil {
			return err
		}
		if label != class {
			mismatches++
		}
	}
	rep.fail(mismatches, fmt.Sprintf("LABEL differs from CLASSIFY of the entity's own title on %d of %d ids", mismatches, checkSample))

	count, err := ask("COUNT")
	if err != nil {
		return err
	}
	members, err := ask("MEMBERS")
	if err != nil {
		return err
	}
	if n := len(strings.Fields(strings.TrimSuffix(members, "(none)"))); strconv.Itoa(n) != count {
		rep.fail(1, fmt.Sprintf("COUNT says %s, MEMBERS lists %d", count, n))
	}
	rows, err := ask("SQL SELECT COUNT(*) FROM papers")
	if err != nil {
		return err
	}
	if want := fmt.Sprintf(`{"cols":["count"],"rows":[["%d"]]}`, wantEntities); rows != want {
		rep.fail(1, fmt.Sprintf("entity count %s, want %d (loaded + acknowledged inserts)", clip(rows), wantEntities))
	}
	return nil
}
