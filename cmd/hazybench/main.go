// Command hazybench regenerates the paper's tables and figures.
//
// Usage:
//
//	hazybench -list
//	hazybench -exp fig4a [-scale 0.5] [-updates 300] [-out results.txt]
//	hazybench -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hazy/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		scale   = flag.Float64("scale", 1.0, "data-set scale multiplier")
		warm    = flag.Int("warm", 2000, "warm-model training examples")
		updates = flag.Int("updates", 300, "measured updates per cell")
		reads   = flag.Int("reads", 15000, "measured single-entity reads")
		out     = flag.String("out", "", "also write results to this file")
		dir     = flag.String("dir", "", "scratch directory for on-disk views (default: temp)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}

	scratch := *dir
	if scratch == "" {
		var err error
		scratch, err = os.MkdirTemp("", "hazybench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(scratch)
	}
	cfg := bench.Config{
		Scale:   *scale,
		Warm:    *warm,
		Updates: *updates,
		Reads:   *reads,
		Dir:     scratch,
	}.WithDefaults()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	run := func(e bench.Experiment) {
		fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg, w); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprintf(w, "  [%s in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.All {
			run(e)
		}
		return
	}
	e, ok := bench.Find(*exp)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (try -list)", *exp))
	}
	run(e)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hazybench:", err)
	os.Exit(1)
}
