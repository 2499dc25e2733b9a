package main

// End-to-end scrape test: build the hazyd binary, boot it with the
// observability plane on an ephemeral port, drive a few protocol
// writes, then GET /metrics and validate the body with a small
// Prometheus text-exposition parser (promParse below). /statsz and
// /debug/pprof/ are probed too. No Prometheus dependency: the parser
// checks exactly the invariants a scraper relies on — TYPE headers,
// sample syntax, and cumulative histogram series ending in +Inf.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// promSample is one parsed exposition line: name{labels} value.
type promSample struct {
	Name   string
	Labels string // raw {...} block, "" when absent
	Value  float64
}

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+]+)$`)

// promParse validates a Prometheus text-format body and returns its
// samples. It enforces: every sample line matches the exposition
// grammar, every sample's family has a preceding # TYPE header, and
// every histogram family's _bucket series is cumulative with a final
// le="+Inf" bucket equal to its _count.
func promParse(t *testing.T, body string) []promSample {
	t.Helper()
	types := map[string]string{} // family -> type
	var samples []promSample
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE header %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if _, ok := types[family]; !ok {
			if _, ok := types[m[1]]; !ok {
				t.Fatalf("line %d: sample %q precedes its # TYPE header", ln+1, m[1])
			}
		}
		samples = append(samples, promSample{Name: m[1], Labels: m[2], Value: v})
	}
	// Histogram invariants: per series, buckets are cumulative and the
	// +Inf bucket equals _count.
	last := map[string]float64{}  // series (sans le) -> previous cumulative
	inf := map[string]float64{}   // series -> +Inf bucket
	count := map[string]float64{} // series -> _count
	leRe := regexp.MustCompile(`,?le="[^"]*"`)
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			key := strings.TrimSuffix(s.Name, "_bucket") + leRe.ReplaceAllString(s.Labels, "")
			if s.Value < last[key] {
				t.Fatalf("histogram %s: non-cumulative buckets", key)
			}
			last[key] = s.Value
			if strings.Contains(s.Labels, `le="+Inf"`) {
				inf[key] = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			count[strings.TrimSuffix(s.Name, "_count")+s.Labels] = s.Value
		}
	}
	for key, c := range count {
		if b, ok := inf[key]; ok && b != c {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", key, b, c)
		}
	}
	return samples
}

// TestMetricsEndpoint boots hazyd -metrics, writes through the TCP
// protocol, and scrapes /metrics, /statsz, and /debug/pprof/.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the hazyd binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hazyd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-fsync", "off", "-db", filepath.Join(dir, "db"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The boot banner prints the metrics address first, then the
	// protocol address: "hazyd: metrics on ADDR (..." and
	// "hazyd: serving catalog [...] on ADDR (...".
	var metricsAddr, serveAddr string
	sc := bufio.NewScanner(stdout)
	for (metricsAddr == "" || serveAddr == "") && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "hazyd: metrics on "); ok {
			metricsAddr, _, _ = strings.Cut(rest, " ")
		}
		if _, rest, ok := strings.Cut(line, "] on "); ok {
			serveAddr, _, _ = strings.Cut(rest, " ")
		}
	}
	if metricsAddr == "" || serveAddr == "" {
		t.Fatalf("did not observe boot banner (metrics=%q serve=%q)", metricsAddr, serveAddr)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// Generate some signal: adds and trains through the default view's
	// engine, then a read.
	conn, err := net.Dial("tcp", serveAddr)
	if err != nil {
		t.Fatal(err)
	}
	cw := bufio.NewWriter(conn)
	cr := bufio.NewReader(conn)
	roundtrip := func(verb string) string {
		t.Helper()
		fmt.Fprintf(cw, "%s\n", verb)
		cw.Flush()
		line, err := cr.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		return strings.TrimSpace(line)
	}
	for i := 1; i <= 4; i++ {
		roundtrip(fmt.Sprintf("ADD %d exposition test document %d", i, i))
		roundtrip(fmt.Sprintf("TRAIN %d %+d", i, 1-2*(i%2)))
	}
	roundtrip("SQL SELECT COUNT(*) FROM labeled_papers WHERE class = 1")
	conn.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	samples := promParse(t, get("/metrics"))
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] += s.Value
	}
	for _, want := range []string{
		"hazy_engine_ops_applied_total", "hazy_engine_trains_total",
		"hazy_engine_batch_size_count", "hazy_engine_queue_depth",
		"hazy_view_reorgs_total", "hazy_wal_appended_bytes_total",
		"hazy_pool_hits_total", "hazy_pool_resident_pages",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if byName["hazy_engine_trains_total"] < 4 {
		t.Errorf("hazy_engine_trains_total = %v, want >= 4", byName["hazy_engine_trains_total"])
	}
	if byName["hazy_engine_publish_us_count"] < 1 {
		t.Errorf("hazy_engine_publish_us_count = %v, want a publish per applied batch", byName["hazy_engine_publish_us_count"])
	}
	if byName["hazy_wal_appended_bytes_total"] == 0 {
		t.Error("hazy_wal_appended_bytes_total = 0, want > 0")
	}

	// /statsz is the same snapshot as JSON.
	var statsz []struct {
		Name  string `json:"name"`
		Value uint64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(get("/statsz")), &statsz); err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	if len(statsz) == 0 {
		t.Fatal("/statsz: empty snapshot")
	}

	// pprof is mounted.
	if body := get("/debug/pprof/cmdline"); !strings.Contains(body, "hazyd") {
		t.Errorf("/debug/pprof/cmdline does not mention the binary: %q", body)
	}

	// Graceful shutdown.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hazyd exited with error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("hazyd did not exit after SIGTERM")
	}
}
