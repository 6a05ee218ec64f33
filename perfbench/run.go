package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"amnt/internal/store"
)

// runConfig is one benchmark run.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	start   time.Time // set-up is timed from here: the process start
	log     io.Writer // diagnostics
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome.
type result struct {
	attempted, failed, retries uint64
	checkErr                   error // nil when every check passed
	metrics                    []metric
}

// cyclePeriod is recover-mixed's power-cycle schedule: one shard,
// round robin, every period.
const cyclePeriod = 100 * time.Millisecond

// quiescentCycles is how many power cycles (round robin over the
// shards) the other workloads run after their load, measuring recovery
// of the state the load left behind. The full read-back that follows
// checks that they lost no acknowledged put.
const quiescentCycles = 64 * shards

// loadMetrics are the load's figures. A timed run reports the median
// latency and the CPU time per operation and prints the others for the
// log only, because their run-to-run spread on a shared 2-CPU host is
// wider than any bound an end-to-end metric may have (see README.md);
// a traced run reports them all per layer.
type loadMetrics struct {
	opsPerS, p50Us, p99Us, ttfrUs, recoveryMs, cpuUs float64
}

// run executes one workload run against a fresh in-process server.
func run(ctx context.Context, rc runConfig) (res result, err error) {
	srv, err := startServer(rc.traced, rc.log)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := srv.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := rc.w
	st := srv.st
	chk := newChecker(w.keys)
	if err := preload(ctx, st, w.keys); err != nil {
		return res, err
	}
	// The flush is a barrier behind every worker's counter snapshot of
	// the preload, which a worker publishes after it answers.
	if err := st.Flush(ctx); err != nil {
		return res, fmt.Errorf("flush: %w", err)
	}
	setup := time.Since(rc.start)

	clients := min(w.clients, runtime.NumCPU())
	t := newTransport(clients, rc.traced)
	defer t.close()
	ks := newKeyspace(w, rc.seed)
	conns := make([]*conn, clients)
	for i := range conns {
		conns[i] = &conn{t: t, base: srv.base, chk: chk}
	}

	before := st.Stats()
	cpu0 := cpuTime()
	length := time.Duration(rc.seconds * float64(time.Second))
	loadStart := time.Now()
	deadline := loadStart.Add(length)
	// On recover-mixed the last client also power-cycles the shards.
	var cy *cycler
	if w.cycle {
		cy = &cycler{st: st, ks: ks, next: loadStart.Add(cyclePeriod / 2)}
	}
	var wg sync.WaitGroup
	for i, c := range conns {
		var mine *cycler
		if i == len(conns)-1 {
			mine = cy
		}
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			drive(ctx, c, newStream(ks, rc.seed, i, clients), deadline, mine)
		}(i, c)
	}
	wg.Wait()
	loadTime := time.Since(loadStart)
	cpuNs := cpuTime() - cpu0
	if err := ctx.Err(); err != nil {
		return res, err
	}
	// The load's figures are taken now, before the quiescent power
	// cycles add their probe gets.
	var answered uint64
	var lat latHist
	for _, c := range conns {
		answered += c.answered
		lat.merge(&c.lat)
	}
	if lat.n < 1000 {
		fmt.Fprintf(rc.log, "warning: %d requests, too few for a p99\n", lat.n)
	}
	lm := loadMetrics{
		opsPerS: float64(answered) / loadTime.Seconds(),
		p50Us:   lat.quantile(0.50) / 1e3,
		p99Us:   lat.quantile(0.99) / 1e3,
		cpuUs:   ratio(float64(cpuNs)/1e3, float64(answered)),
	}

	var cycles []cycleResult
	if cy != nil {
		if cy.err != nil {
			return res, cy.err
		}
		cycles = cy.results
	} else {
		for i := 0; i < quiescentCycles; i++ {
			cr, err := powerCycle(ctx, st, conns[0], ks, i%shards, false)
			if err != nil {
				return res, err
			}
			cycles = append(cycles, cr)
		}
	}
	ttfr, recovery := make([]int64, len(cycles)), make([]int64, len(cycles))
	for i, cr := range cycles {
		ttfr[i], recovery[i] = cr.ttfrNs, cr.recoveryNs
	}
	sortInt64(ttfr)
	sortInt64(recovery)
	lm.ttfrUs = quantile(ttfr, 0.5) / 1e3
	lm.recoveryMs = quantile(recovery, 0.5) / 1e6
	fmt.Fprintf(rc.log, "load: ops_per_s=%.1f req_p50_us=%.1f req_p99_us=%.1f ttfr_us=%.1f recovery_ms=%.4f cpu_us_per_op=%.3f\n",
		lm.opsPerS, lm.p50Us, lm.p99Us, lm.ttfrUs, lm.recoveryMs, lm.cpuUs)
	// The peak is read before the final read-back, whose key-sized
	// slices are the benchmark's and not the program's.
	rss := rssPeakMB()

	// Every key must now read back at exactly its last acknowledged
	// version: nothing is in flight.
	all := make([]uint64, w.keys)
	floors := make([]uint64, w.keys)
	for k := range all {
		all[k] = uint64(k)
		floors[k] = chk.floor(uint64(k))
	}
	if err := readBack(ctx, st, chk, all, floors); err != nil {
		return res, err
	}
	// Again a barrier behind the workers' last counter snapshots.
	if err := st.Flush(ctx); err != nil {
		return res, fmt.Errorf("flush: %w", err)
	}
	after := st.Stats()
	chk.totals(delta(before, after))
	if err := checkProperties(ks, rc.seed); err != nil {
		chk.fail(err)
	}

	for _, c := range conns {
		res.attempted += c.ops
		res.failed += c.failed
		res.retries += c.retries
	}
	if rc.traced {
		res.metrics, err = layerMetrics(ctx, layerInput{
			rc: rc, srv: srv, t: t, conns: conns, cycles: cycles,
			before: before, after: after, load: lm, ks: ks,
		})
		if err != nil {
			return res, err
		}
	} else {
		res.metrics = []metric{
			{"setup_s", "s", setup.Seconds()},
			{"rss_peak_mb", "MB", rss},
			{"req_p50_us", "us", lm.p50Us},
			{"cpu_us_per_op", "us", lm.cpuUs},
		}
	}
	res.checkErr = chk.err()
	if res.checkErr == nil && res.failed > 0 {
		fmt.Fprintf(rc.log, "failed operations, first few: %v\n", errors.Join(chk.opErrs...))
	}
	return res, nil
}

// preload writes every key of the keyspace at preloadVersion.
func preload(ctx context.Context, st *store.Store, keys uint64) error {
	const chunk = 1024
	kvs := make([]store.KV, 0, chunk)
	for k := uint64(0); k < keys; k++ {
		kvs = append(kvs, store.KV{Key: k, Value: encodeValue(nil, k, preloadVersion)})
		if len(kvs) == chunk || k == keys-1 {
			for i, err := range st.PutBatch(ctx, kvs) {
				if err != nil {
					return fmt.Errorf("preload key %d: %w", kvs[i].Key, err)
				}
			}
			kvs = kvs[:0]
		}
	}
	return nil
}

// cycler power-cycles the shards in turn, one every cyclePeriod, from
// the client that drives it.
type cycler struct {
	st      *store.Store
	ks      *keyspace
	next    time.Time
	n       int
	results []cycleResult
	err     error
}

// drive is one closed-loop client: it sends its stream's next request
// as soon as the previous one is answered, until the deadline. With cy
// set it also power-cycles a shard whenever one is due.
func drive(ctx context.Context, c *conn, s *stream, deadline time.Time, cy *cycler) {
	var puts, gets, versions []uint64
	for ctx.Err() == nil && time.Now().Before(deadline) {
		if cy != nil && !time.Now().Before(cy.next) {
			cr, err := powerCycle(ctx, cy.st, c, cy.ks, cy.n%shards, true)
			if err != nil {
				cy.err = err
				return
			}
			cy.results = append(cy.results, cr)
			cy.n++
			cy.next = cy.next.Add(cyclePeriod)
			continue
		}
		puts, gets = s.next(puts, gets)
		versions = versions[:0]
		for _, k := range puts {
			versions = append(versions, c.chk.issue(k))
		}
		if s.ks.w.batch == 1 {
			for i, k := range puts {
				c.put(ctx, k, versions[i])
			}
			for _, k := range gets {
				c.get(ctx, k)
			}
			continue
		}
		c.batch(ctx, puts, versions, gets)
	}
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile interpolates the q-quantile of sorted; 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

// cpuTime is the process's user and system CPU time, in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
