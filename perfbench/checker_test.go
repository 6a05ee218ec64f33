package main

import (
	"context"
	"testing"

	"amnt/internal/store"
)

// Each test feeds the checker one kind of wrong answer and requires it
// to fail; TestCheckerAcceptsCorrectAnswers shows the same checks pass
// on right ones.

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	c := newChecker(8)
	lo := c.floor(3)
	v := c.issue(3)
	c.ack(3, v)
	c.get(3, lo, encodeValue(nil, 3, v))         // concurrent with the put: either version
	c.get(3, c.floor(3), encodeValue(nil, 3, v)) // after the ack: the new one
	c.totals(storeDelta{gets: 2, puts: 1, dataWrites: 1})
	if err := c.err(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	c := newChecker(8)
	v := c.issue(3)
	c.ack(3, v)
	c.get(3, c.floor(3), encodeValue(nil, 3, preloadVersion))
	if c.err() == nil {
		t.Fatal("a read older than an acknowledged put passed")
	}
}

func TestCheckerRejectsUnissuedVersion(t *testing.T) {
	c := newChecker(8)
	c.get(3, c.floor(3), encodeValue(nil, 3, preloadVersion+1))
	if c.err() == nil {
		t.Fatal("a version no put carried passed")
	}
}

func TestCheckerRejectsWrongKey(t *testing.T) {
	c := newChecker(8)
	c.get(3, c.floor(3), encodeValue(nil, 5, preloadVersion))
	if c.err() == nil {
		t.Fatal("another key's value passed")
	}
}

func TestCheckerRejectsLostAcknowledgedWrite(t *testing.T) {
	st, err := store.Open(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(context.Background())
	ctx := context.Background()
	if err := preload(ctx, st, 64); err != nil {
		t.Fatal(err)
	}
	c := newChecker(64)
	// The client was acknowledged version 2 of key 9, but the store
	// still holds version 1: the write was lost.
	c.ack(9, c.issue(9))
	if err := readBack(ctx, st, c, []uint64{9}, []uint64{c.floor(9)}); err != nil {
		t.Fatal(err)
	}
	if c.err() == nil {
		t.Fatal("a lost acknowledged write passed the read-back")
	}
}

func TestCheckerRejectsMiscountedTotals(t *testing.T) {
	cases := map[string]storeDelta{
		"gets":            {gets: 3, puts: 1, dataWrites: 1},
		"puts":            {gets: 2, puts: 2, dataWrites: 1},
		"too few gets":    {gets: 1, puts: 1, dataWrites: 1},
		"too few writes":  {gets: 2, puts: 1, dataWrites: 0},
		"too many writes": {gets: 2, puts: 1, dataWrites: 2},
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			c := newChecker(8)
			c.ack(3, c.issue(3))
			c.get(3, c.floor(3), encodeValue(nil, 3, 2))
			c.get(4, c.floor(4), encodeValue(nil, 4, preloadVersion))
			c.totals(d)
			if c.err() == nil {
				t.Fatalf("store totals %+v passed against 2 gets, 1 put, 1 key written", d)
			}
		})
	}
}

// A put and a get nacked with ErrRecovering on the store's serve path
// were counted by the store, then sent again and answered: the store's
// totals may exceed the clients' by the retried operations, and by no
// more.
func TestCheckerBoundsRetriedOperations(t *testing.T) {
	answer := func(c *checker) {
		c.retry(1, 1)
		c.ack(3, c.issue(3))
		c.get(4, c.floor(4), encodeValue(nil, 4, preloadVersion))
	}
	for _, d := range []storeDelta{
		{gets: 1, puts: 1, dataWrites: 1}, // nacked by submit, not counted
		{gets: 2, puts: 2, dataWrites: 1}, // nacked by serve, counted
	} {
		c := newChecker(8)
		answer(c)
		c.totals(d)
		if err := c.err(); err != nil {
			t.Errorf("store totals %+v: %v", d, err)
		}
	}
	for _, d := range []storeDelta{
		{gets: 3, puts: 2, dataWrites: 1},
		{gets: 2, puts: 3, dataWrites: 1},
	} {
		c := newChecker(8)
		answer(c)
		c.totals(d)
		if c.err() == nil {
			t.Errorf("store totals %+v passed against 1 get and 1 put, each retried once", d)
		}
	}
}
