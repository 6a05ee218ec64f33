package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// checker is the benchmark's own model of what the store must answer,
// kept apart from the program: per-key version bounds for every get,
// and operation totals counted on the client side to compare with the
// store's counters.
//
// Every key has one writer (see owner), so its versions are issued and
// acknowledged in order. A get sent after version lo was acknowledged
// and completed before version hi+1 was issued must read a version in
// [lo, hi].
type checker struct {
	issued []atomic.Uint64 // last version handed to a put, per key
	acked  []atomic.Uint64 // last version the store acknowledged, per key

	gets, puts atomic.Uint64 // acknowledged key operations
	// Key operations sent again after an ErrRecovering nack. The store
	// counts a nacked attempt when the nack came from its serve path
	// and not when submit refused it, so each of these may or may not
	// be in its totals.
	retriedGets, retriedPuts atomic.Uint64

	mu     sync.Mutex
	errs   []error // failed checks, the first few
	nerr   int
	opErrs []error // failed operations, the first few
}

// preloadVersion is the version every key holds after set-up.
const preloadVersion = 1

func newChecker(keys uint64) *checker {
	c := &checker{issued: make([]atomic.Uint64, keys), acked: make([]atomic.Uint64, keys)}
	for k := range c.issued {
		c.issued[k].Store(preloadVersion)
		c.acked[k].Store(preloadVersion)
	}
	return c
}

// issue hands out the next version of key; called by its writer.
func (c *checker) issue(key uint64) uint64 { return c.issued[key].Add(1) }

// ack records that the store acknowledged version of key.
func (c *checker) ack(key, version uint64) {
	c.acked[key].Store(version)
	c.puts.Add(1)
}

// retry records puts and gets sent again after a nack.
func (c *checker) retry(puts, gets int) {
	c.retriedPuts.Add(uint64(puts))
	c.retriedGets.Add(uint64(gets))
}

// floor is the lowest version a get of key sent now may return.
func (c *checker) floor(key uint64) uint64 { return c.acked[key].Load() }

// fail records one failed check; only the first few are kept.
func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nerr++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, err)
	}
}

// get checks one acknowledged get of key, sent when floor(key) was lo.
func (c *checker) get(key, lo uint64, value []byte) {
	c.gets.Add(1)
	hi := c.issued[key].Load()
	k, v, err := decodeValue(value)
	switch {
	case err != nil:
		c.fail(fmt.Errorf("get %d: %w", key, err))
	case k != key:
		c.fail(fmt.Errorf("get %d: value belongs to key %d", key, k))
	case v < lo:
		c.fail(fmt.Errorf("get %d: stale version %d, version %d was acknowledged before the get", key, v, lo))
	case v > hi:
		c.fail(fmt.Errorf("get %d: version %d was never issued (last %d)", key, v, hi))
	}
}

// distinctWritten counts keys written since set-up.
func (c *checker) distinctWritten() uint64 {
	var n uint64
	for k := range c.acked {
		if c.acked[k].Load() > preloadVersion {
			n++
		}
	}
	return n
}

// totals checks the store's counter deltas over the run against the
// client's own counts. The store counted every acknowledged get and put
// and, at most, every nacked attempt that was sent again. The data
// region must have been written at least once per distinct key and at
// most once per acknowledged put (group commit may combine writes).
func (c *checker) totals(d storeDelta) {
	gets, puts := c.gets.Load(), c.puts.Load()
	rg, rp := c.retriedGets.Load(), c.retriedPuts.Load()
	if n := uint64(d.gets); n < gets || n > gets+rg {
		c.fail(fmt.Errorf("store counted %d gets, clients were answered %d and retried %d", n, gets, rg))
	}
	if n := uint64(d.puts); n < puts || n > puts+rp {
		c.fail(fmt.Errorf("store counted %d puts, clients were acknowledged %d and retried %d", n, puts, rp))
	}
	distinct := c.distinctWritten()
	if n := uint64(d.dataWrites); n < distinct || n > puts {
		c.fail(fmt.Errorf("%d data-region writes outside [%d distinct keys written, %d acknowledged puts]", n, distinct, puts))
	}
}

// err is every recorded failure, nil when all checks passed.
func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nerr == 0 {
		return nil
	}
	err := errors.Join(c.errs...)
	if c.nerr > len(c.errs) {
		err = fmt.Errorf("%w\n(%d more)", err, c.nerr-len(c.errs))
	}
	return err
}

// failOp records an operation the store did not complete. Failed
// operations are counted, not checked; the first few are kept for the
// report.
func (c *checker) failOp(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.opErrs) < 8 {
		c.opErrs = append(c.opErrs, err)
	}
}
