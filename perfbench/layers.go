package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"amnt/internal/store"
)

// layerInput is what a traced run hands to the per-layer report.
type layerInput struct {
	rc            runConfig
	srv           *server
	t             *transport
	conns         []*conn
	cycles        []cycleResult
	before, after store.Snapshot
	load          loadMetrics
	ks            *keyspace
}

// storePhases are the program's own span phases reported per layer.
var storePhases = []string{"queue_wait", "epoch_stage", "commit_climb", "persist", "read_verify", "ack"}

// layerMetrics assembles the traced run's per-layer metrics, outermost
// layer first, then runs the store, mee and cme rungs.
func layerMetrics(ctx context.Context, in layerInput) ([]metric, error) {
	var reqs, encNs, decNs int64
	var wire, self []int64
	for _, c := range in.conns {
		for i, tr := range c.traces {
			reqs++
			encNs += tr.encodeNs
			decNs += tr.decodeNs
			wire = append(wire, c.rtt[i]-tr.handlerNs)
			self = append(self, tr.handlerNs-tr.spanUs*1000)
		}
	}
	sortInt64(wire)
	sortInt64(self)
	hand := in.srv.hand.times()
	sortInt64(hand)
	var keyOps uint64
	for _, c := range in.conns {
		keyOps += c.ops
	}

	// Sampling stops first, so the report's Sample call is the only one.
	ticks := in.srv.stopSampler()
	snap := in.srv.reg.Sample(in.srv.st.TotalCycles())
	phase := func(name, q string) float64 {
		v, _ := snap.Value("span.phase." + name + "." + q)
		return v
	}

	d := delta(in.before, in.after)
	ms := []metric{
		{"client.ops_per_s", "1/s", in.load.opsPerS},
		{"client.req_p50_us", "us", in.load.p50Us},
		{"client.req_p99_us", "us", in.load.p99Us},
		{"client.encode_us_per_req", "us", ratio(float64(encNs)/1e3, float64(reqs))},
		{"client.decode_us_per_req", "us", ratio(float64(decNs)/1e3, float64(reqs))},
		{"client.conns_dialed", "count", float64(in.t.dials.Load())},
		{"http.wire_us_p50", "us", quantile(wire, 0.5) / 1e3},
		{"http.req_bytes_per_op", "bytes", ratio(float64(in.t.sent.Load()), float64(keyOps))},
		{"http.resp_bytes_per_op", "bytes", ratio(float64(in.t.got.Load()), float64(keyOps))},
		{"node.handler_us_p50", "us", quantile(hand, 0.5) / 1e3},
		{"node.handler_us_p99", "us", quantile(hand, 0.99) / 1e3},
		{"node.self_us_p50", "us", quantile(self, 0.5) / 1e3},
	}
	for _, p := range storePhases {
		ms = append(ms,
			metric{"store." + p + "_us_p50", "us", phase(p, "p50")},
			metric{"store." + p + "_us_p99", "us", phase(p, "p99")})
	}
	epochMean := ratio(d.epochOps, d.epochs)
	ms = append(ms,
		metric{"store.epoch_ops_mean", "count", epochMean},
		metric{"store.concurrent_read_share", "ratio", ratio(d.concurrentReads, d.gets)},
		metric{"store.read_retries_per_kget", "count", ratio(1000*d.readRetries, d.gets)},
		metric{"store.overloads", "count", d.overloads},
		metric{"store.read_fallbacks", "count", d.readFallbacks},
		metric{"store.recovering_nacks", "count", d.recoveringNacks},
		metric{"store.degraded_writes", "count", d.degradedWrites},
		metric{"store.provisional_loads", "count", d.provisionalLoads},
		metric{"mee.sim_kcycles_per_op", "kcycles", ratio(d.cycles/1e3, d.gets+d.puts)},
		metric{"scm.writes_per_put", "count", ratio(d.postedWrites, d.puts)},
	)

	call, rebuild, leaves := make([]int64, len(in.cycles)), make([]float64, len(in.cycles)), make([]float64, len(in.cycles))
	for i, cr := range in.cycles {
		call[i], rebuild[i], leaves[i] = cr.callNs, cr.rebuildMs, float64(cr.leaves)
	}
	sortInt64(call)
	ms = append(ms,
		metric{"store.ttfr_us", "us", in.load.ttfrUs},
		metric{"store.recovery_ms", "ms", in.load.recoveryMs},
		metric{"store.recover_call_us", "us", quantile(call, 0.5) / 1e3},
		metric{"bmt.rebuild_ms", "ms", medianFloat(rebuild)},
		metric{"bmt.leaves_rebuilt", "count", medianFloat(leaves)},
	)
	var tickSum int64
	for _, t := range ticks {
		tickSum += t
	}
	ms = append(ms, metric{"telemetry.sample_us_per_tick", "us", ratio(float64(tickSum)/1e3, float64(len(ticks)))})

	putUs, getUs, err := storeRung(ctx, in.ks, in.rc.seed)
	if err != nil {
		return nil, err
	}
	ms = append(ms,
		metric{"store.put_us_per_key", "us", putUs},
		metric{"store.get_us_per_key", "us", getUs})
	mee, err := meeRung(in.ks, in.rc.seed, max(1, int(math.Round(epochMean))))
	if err != nil {
		return nil, err
	}
	ms = append(ms, mee...)
	return append(ms, cmeRung(in.ks, in.rc.seed)...), nil
}

// storeDelta is the change of the store's summed counters over a run.
type storeDelta struct {
	gets, puts, epochs, epochOps                float64
	concurrentReads, readRetries, readFallbacks float64
	overloads, degradedWrites, provisionalLoads float64
	recoveringNacks                             float64
	cycles, postedWrites, dataWrites            float64
}

func delta(before, after store.Snapshot) storeDelta {
	sum := func(s store.Snapshot) storeDelta {
		var d storeDelta
		for _, sh := range s.Shards {
			d.gets += float64(sh.Gets)
			d.puts += float64(sh.Puts)
			d.epochs += float64(sh.Epochs)
			d.epochOps += float64(sh.EpochOps)
			d.concurrentReads += float64(sh.ConcurrentRds)
			d.readRetries += float64(sh.ReadRetries)
			d.readFallbacks += float64(sh.ReadFallbacks)
			d.degradedWrites += float64(sh.DegradedWrites)
			d.provisionalLoads += float64(sh.ProvisionalRds)
			d.recoveringNacks += float64(sh.RecoveringNack)
			d.cycles += float64(sh.Cycles)
			d.postedWrites += float64(sh.PostedWrites)
			d.dataWrites += float64(sh.DataWrites)
		}
		d.overloads = float64(s.Overloads)
		return d
	}
	a, b := sum(before), sum(after)
	return storeDelta{
		gets: b.gets - a.gets, puts: b.puts - a.puts,
		epochs: b.epochs - a.epochs, epochOps: b.epochOps - a.epochOps,
		concurrentReads:  b.concurrentReads - a.concurrentReads,
		readRetries:      b.readRetries - a.readRetries,
		readFallbacks:    b.readFallbacks - a.readFallbacks,
		overloads:        b.overloads - a.overloads,
		degradedWrites:   b.degradedWrites - a.degradedWrites,
		provisionalLoads: b.provisionalLoads - a.provisionalLoads,
		recoveringNacks:  b.recoveringNacks - a.recoveringNacks,
		cycles:           b.cycles - a.cycles,
		postedWrites:     b.postedWrites - a.postedWrites,
		dataWrites:       b.dataWrites - a.dataWrites,
	}
}

// ratio is a/b, or 0 when the layer saw no b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianFloat is the median of v, which it leaves unchanged.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// rssPeakMB is the process's peak resident set (VmHWM), in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
