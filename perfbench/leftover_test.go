package main

import (
	"context"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// openSockets counts the process's socket descriptors: listeners and
// connections alike.
func openSockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if link, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(link, "socket:") {
			n++
		}
	}
	return n
}

// TestRunLeavesNothingBehind runs a short workload twice, timed and
// traced, and requires goroutines and sockets to return to where they
// started and the temporary directory to stay empty.
func TestRunLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	goroutines, sockets := runtime.NumGoroutine(), openSockets(t)
	w, err := findWorkload("ycsb-a-perop")
	if err != nil {
		t.Fatal(err)
	}
	for i, traced := range []bool{false, true} {
		res, err := run(context.Background(), runConfig{
			w: w, seed: int64(i + 1), seconds: 0.3, traced: traced, start: time.Now(), log: io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.checkErr != nil || res.failed != 0 || res.attempted == 0 {
			t.Fatalf("run %d: check %v, %d of %d operations failed", i, res.checkErr, res.failed, res.attempted)
		}
	}
	// Goroutines of closed connections exit asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines || openSockets(t) > sockets {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines (started with %d), %d sockets (started with %d)\n%s",
				runtime.NumGoroutine(), goroutines, openSockets(t), sockets, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Fatalf("temporary directory holds %v (%v)", left, err)
	}
}

// TestInterruptedRunStops cancels a run mid-load, as SIGINT does, and
// requires it to return promptly with the cancellation and without a
// result.
func TestInterruptedRunStops(t *testing.T) {
	w, err := findWorkload("recover-mixed")
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(300*time.Millisecond, cancel)
	t0 := time.Now()
	_, err = run(ctx, runConfig{w: w, seed: 1, seconds: 30, start: time.Now(), log: io.Discard})
	if err == nil {
		t.Fatal("an interrupted run reported success")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("interrupted run took %v to stop", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left (started with %d)", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
