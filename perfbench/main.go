// Command perfbench is the serving benchmark of the secure-SCM KV
// stack. It runs cmd/amntd's serving stack (store → span recorder →
// node → telemetry HTTP server) inside its own process on a loopback
// port, drives it with closed-loop HTTP clients for a fixed time,
// checks every answer against its own model, and prints the metrics.
//
//	perfbench --workload ycsb-a-perop --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// load with a handler-timing middleware and client-side codec timers,
// then times each layer on its own, and reports the per-layer metrics.
// --workload all runs every workload in turn and prints one JSON line
// each. The exit code is 0 only when every check passed; a failed
// check or an interrupt exits non-zero without a result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// processStart is as close to the process start as Go code gets; the
// first run's set-up time is measured from it.
var processStart = time.Now()

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated keys, values and operation mix")
		seconds = flag.Float64("seconds", 10, "length of the measured load, seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := mainErr(ctx, os.Stdout, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, out io.Writer, name string, seed int64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ws := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	fmt.Fprintf(out, "host: cpus=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	start := processStart
	for _, w := range ws {
		res, err := run(ctx, runConfig{w: w, seed: seed, seconds: seconds, traced: traced, start: start, log: os.Stderr})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if res.checkErr != nil {
			return fmt.Errorf("%s: check failed: %w", w.name, res.checkErr)
		}
		if err := report(out, w.name, seed, res); err != nil {
			return err
		}
		start = time.Now() // a later workload's set-up starts here
	}
	return nil
}

// report prints a run's metrics, one per line, then the result line.
func report(out io.Writer, name string, seed int64, res result) error {
	fmt.Fprintf(out, "workload=%s seed=%d attempted=%d failed=%d retried=%d\n",
		name, seed, res.attempted, res.failed, res.retries)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
