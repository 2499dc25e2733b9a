package hazy

import (
	"os/exec"
	"testing"
)

// TestHazyloadSuite runs the tests of cmd/hazyload, the end-to-end
// benchmark. It is its own module, so `go test ./...` from the root
// never enters it; its smoke test drives a real server over TCP and
// checks every `LABEL id` against `CLASSIFY <title>` before and after
// a restart — the wire-level oracle for every view layout change.
func TestHazyloadSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cmd/hazyload module's tests in a child go test")
	}
	// -C must be the first flag.
	out, err := exec.Command("go", "test", "-C", "cmd/hazyload", "-count=1", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -C cmd/hazyload: %v\n%s", err, out)
	}
	t.Logf("%s", out)
}
