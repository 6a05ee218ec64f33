package main

import (
	"context"
	"fmt"
	"time"

	"amnt/internal/store"
)

// cycleResult is one shard power cycle as the benchmark saw it.
type cycleResult struct {
	callNs     int64   // the Store.RecoverShard call
	ttfrNs     int64   // call return → first verified get of the shard answered
	recoveryNs int64   // call start → Store.Stats() reports the shard serving
	rebuildMs  float64 // the recovery watermark's rebuild wall time
	leaves     uint64  // counter leaves the rebuild covered
}

// probeKey is the hottest key of shard, the one a client would most
// likely ask for first.
func probeKey(ks *keyspace, shard int) uint64 {
	if ks.perm != nil {
		for _, k := range ks.perm {
			if int(k%shards) == shard {
				return uint64(k)
			}
		}
	}
	return uint64(shard)
}

// powerCycle crashes and recovers one shard. While c probes the shard
// with a get, a poller waits for Store.Stats() to report it serving
// again. With check set it then checks that every put acknowledged
// before the cycle reads back at its version or a later one.
func powerCycle(ctx context.Context, st *store.Store, c *conn, ks *keyspace, shard int, check bool) (cycleResult, error) {
	var res cycleResult
	var keys, floors []uint64
	if check {
		for k := uint64(shard); k < ks.w.keys; k += shards {
			keys = append(keys, k)
			floors = append(floors, c.chk.floor(k))
		}
	}

	t0 := time.Now()
	if err := st.RecoverShard(ctx, shard); err != nil {
		return res, fmt.Errorf("power cycle shard %d: %w", shard, err)
	}
	t1 := time.Now()
	res.callNs = int64(t1.Sub(t0))
	polled := make(chan error, 1)
	go func() { polled <- awaitServing(ctx, st, shard, t0, &res) }()
	ok := c.get(ctx, probeKey(ks, shard))
	res.ttfrNs = int64(time.Since(t1))
	if err := <-polled; err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("first get after power cycle of shard %d failed", shard)
	}
	if !check {
		return res, nil
	}
	return res, readBack(ctx, st, c.chk, keys, floors)
}

// servingPoll is how often a cycle polls Store.Stats() for the shard's
// return to serving. A spinning poller would take a CPU from the shard
// worker, which rebuilds only when it has no requests to serve.
const servingPoll = 50 * time.Microsecond

// awaitServing polls until shard is serving and fills in the recovery
// time and watermark.
func awaitServing(ctx context.Context, st *store.Store, shard int, t0 time.Time, res *cycleResult) error {
	for {
		snap := st.Stats().Shards[shard]
		switch snap.Health {
		case "serving":
			res.recoveryNs = int64(time.Since(t0))
			res.rebuildMs = snap.RecoveryWallMs
			res.leaves = snap.RecoveryTotal
			return nil
		case "quarantined":
			return fmt.Errorf("shard %d quarantined after power cycle", shard)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(servingPoll):
		}
	}
}

// readBack reads keys in-process and checks each against its floor
// version. Failures are check failures, not failed operations.
func readBack(ctx context.Context, st *store.Store, chk *checker, keys, floors []uint64) error {
	const chunk = 1024
	for i := 0; i < len(keys); i += chunk {
		j := min(i+chunk, len(keys))
		values, errs := st.GetBatch(ctx, keys[i:j])
		for n, err := range errs {
			if err != nil {
				return fmt.Errorf("read back key %d: %w", keys[i+n], err)
			}
			chk.get(keys[i+n], floors[i+n], values[n])
		}
	}
	return nil
}
