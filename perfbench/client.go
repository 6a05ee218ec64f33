package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"amnt/internal/store"
)

// transport is the load's connection pool: keep-alive, at most conns
// connections, each dial counted. On a traced run every connection
// also counts the bytes it carries.
type transport struct {
	hc        *http.Client
	traced    bool
	dials     atomic.Uint64
	sent, got atomic.Uint64 // wire bytes, traced runs only
}

func newTransport(conns int, traced bool) *transport {
	t := &transport{traced: traced}
	d := &net.Dialer{}
	t.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			t.dials.Add(1)
			if t.traced {
				return &countingConn{Conn: c, t: t}, nil
			}
			return c, nil
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return t
}

func (t *transport) close() { t.hc.CloseIdleConnections() }

type countingConn struct {
	net.Conn
	t *transport
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.t.got.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.t.sent.Add(uint64(n))
	return n, err
}

// reqTrace is what a traced run learns about one request.
type reqTrace struct {
	encodeNs, decodeNs int64
	handlerNs          int64 // node handler time up to its response, from handlerHeader
	spanUs             int64 // the program's own span total for the request
}

// conn is one closed-loop client: it sends a request, waits for the
// reply, checks it, and only then sends the next.
type conn struct {
	t    *transport
	base string
	chk  *checker

	ops, failed, retries uint64
	answered             uint64     // key operations answered
	lat                  latHist    // round trip per answered request
	rtt                  []int64    // ns per answered request, traced runs only
	traces               []reqTrace // traced runs only
}

type timingJSON struct {
	TotalUs int64 `json:"total_us"`
}

type kvResponse struct {
	ValueB64 string      `json:"value_b64"`
	Timing   *timingJSON `json:"timing"`
}

type batchPutJSON struct {
	Key      uint64 `json:"key"`
	ValueB64 string `json:"value_b64"`
}

type batchRequestJSON struct {
	Puts []batchPutJSON `json:"puts,omitempty"`
	Gets []uint64       `json:"gets,omitempty"`
}

type batchResultJSON struct {
	Key      uint64 `json:"key"`
	ValueB64 string `json:"value_b64"`
	Error    string `json:"error"`
}

type batchResponse struct {
	Puts   []batchResultJSON `json:"puts"`
	Gets   []batchResultJSON `json:"gets"`
	Timing *timingJSON       `json:"timing"`
}

// errRecovering is a nack for a shard that is rebuilding its tree,
// which the store documents as retryable (store.ErrRecovering).
var errRecovering = errors.New(store.ErrRecovering.Error())

// recovering reports whether a per-key error or a 503 body is that nack.
func recovering(msg string) bool { return strings.Contains(msg, store.ErrRecovering.Error()) }

// maxRetries bounds the retries of one operation, each after
// retryPause, before it counts as failed.
const (
	maxRetries = 1000
	retryPause = 100 * time.Microsecond
)

// pause waits before a retry; false once ctx is done.
func pause(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(retryPause):
		return true
	}
}

// roundTrip sends one request and reads the whole reply; the duration
// it returns is the client's round-trip clock. Any answer but 200 is
// an error: the workloads are built so that no operation fails, and
// only errRecovering is retried.
func (c *conn) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, http.Header, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.t.hc.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return nil, nil, 0, err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable && recovering(string(b)):
		return nil, nil, 0, errRecovering
	case resp.StatusCode != http.StatusOK:
		return nil, nil, 0, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, resp.Header, rtt, nil
}

// record files one answered request's key operations and round trip;
// a traced run also keeps the request's trace.
func (c *conn) record(rtt time.Duration, keys int, h http.Header, tr reqTrace, timing *timingJSON) {
	c.answered += uint64(keys)
	c.lat.add(int64(rtt))
	if !c.t.traced {
		return
	}
	c.rtt = append(c.rtt, int64(rtt))
	tr.handlerNs, _ = strconv.ParseInt(h.Get(handlerHeader), 10, 64)
	if timing != nil {
		tr.spanUs = timing.TotalUs
	}
	c.traces = append(c.traces, tr)
}

// put writes key at version through /v1/kv.
func (c *conn) put(ctx context.Context, key, version uint64) {
	c.ops++
	var tr reqTrace
	t0 := c.clock()
	body := encodeValue(make([]byte, 0, valueLen), key, version)
	path := "/v1/kv/" + strconv.FormatUint(key, 10)
	tr.encodeNs = c.since(t0)
	b, h, rtt, err := c.roundTrip(ctx, http.MethodPut, path, body)
	for try := 0; err == errRecovering && try < maxRetries && pause(ctx); try++ {
		c.retries++
		c.chk.retry(1, 0)
		b, h, rtt, err = c.roundTrip(ctx, http.MethodPut, path, body)
	}
	if err != nil {
		c.fail(1, err)
		return
	}
	t1 := c.clock()
	var r kvResponse
	err = json.Unmarshal(b, &r)
	tr.decodeNs = c.since(t1)
	if err != nil {
		c.fail(1, fmt.Errorf("put %d: %w", key, err))
		return
	}
	c.chk.ack(key, version)
	c.record(rtt, 1, h, tr, r.Timing)
}

// get reads key through /v1/kv and checks the answer.
func (c *conn) get(ctx context.Context, key uint64) bool {
	c.ops++
	var tr reqTrace
	lo := c.chk.floor(key)
	t0 := c.clock()
	path := "/v1/kv/" + strconv.FormatUint(key, 10)
	tr.encodeNs = c.since(t0)
	b, h, rtt, err := c.roundTrip(ctx, http.MethodGet, path, nil)
	for try := 0; err == errRecovering && try < maxRetries && pause(ctx); try++ {
		c.retries++
		c.chk.retry(0, 1)
		b, h, rtt, err = c.roundTrip(ctx, http.MethodGet, path, nil)
	}
	if err != nil {
		c.fail(1, err)
		return false
	}
	t1 := c.clock()
	var r kvResponse
	err = json.Unmarshal(b, &r)
	var v []byte
	if err == nil {
		v, err = base64.StdEncoding.DecodeString(r.ValueB64)
	}
	tr.decodeNs = c.since(t1)
	if err != nil {
		c.fail(1, fmt.Errorf("get %d: %w", key, err))
		return false
	}
	c.chk.get(key, lo, v)
	c.record(rtt, 1, h, tr, r.Timing)
	return true
}

// batch sends puts (at their versions) and gets as one /v1/batch
// request, checks every per-key answer, and sends the keys nacked with
// errRecovering again.
func (c *conn) batch(ctx context.Context, puts, versions, gets []uint64) {
	c.ops += uint64(len(puts) + len(gets))
	los := make([]uint64, len(gets))
	for i, k := range gets {
		los[i] = c.chk.floor(k)
	}
	for try := 0; ; try++ {
		puts, versions, gets, los = c.batchOnce(ctx, puts, versions, gets, los, try < maxRetries)
		if len(puts)+len(gets) == 0 {
			return
		}
		c.retries++
		c.chk.retry(len(puts), len(gets))
		if !pause(ctx) {
			c.fail(len(puts)+len(gets), ctx.Err())
			return
		}
	}
}

// batchOnce sends one /v1/batch request and returns the keys to send
// again: those nacked with errRecovering, when retry is set.
func (c *conn) batchOnce(ctx context.Context, puts, versions, gets, los []uint64, retry bool) (rPuts, rVersions, rGets, rLos []uint64) {
	n := len(puts) + len(gets)
	var tr reqTrace
	t0 := c.clock()
	req := batchRequestJSON{Gets: gets}
	for i, k := range puts {
		req.Puts = append(req.Puts, batchPutJSON{Key: k, ValueB64: base64.StdEncoding.EncodeToString(encodeValue(nil, k, versions[i]))})
	}
	body, err := json.Marshal(&req)
	tr.encodeNs = c.since(t0)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	b, h, rtt, err := c.roundTrip(ctx, http.MethodPost, "/v1/batch", body)
	if err == errRecovering && retry {
		return puts, versions, gets, los
	}
	if err != nil {
		c.fail(n, err)
		return
	}
	t1 := c.clock()
	var r batchResponse
	err = json.Unmarshal(b, &r)
	if err == nil && (len(r.Puts) != len(puts) || len(r.Gets) != len(gets)) {
		err = fmt.Errorf("batch answered %d puts and %d gets for %d and %d", len(r.Puts), len(r.Gets), len(puts), len(gets))
	}
	values := make([][]byte, len(r.Gets))
	for i := 0; err == nil && i < len(r.Gets); i++ {
		if r.Gets[i].Error == "" {
			values[i], err = base64.StdEncoding.DecodeString(r.Gets[i].ValueB64)
		}
	}
	tr.decodeNs = c.since(t1)
	if err != nil {
		c.fail(n, err)
		return
	}
	answered := 0
	for i, res := range r.Puts {
		switch {
		case res.Error == "":
			answered++
			c.chk.ack(puts[i], versions[i])
		case retry && recovering(res.Error):
			rPuts, rVersions = append(rPuts, puts[i]), append(rVersions, versions[i])
		default:
			c.fail(1, fmt.Errorf("put %d: %s", res.Key, res.Error))
		}
	}
	for i, res := range r.Gets {
		switch {
		case res.Error == "":
			answered++
			c.chk.get(gets[i], los[i], values[i])
		case retry && recovering(res.Error):
			rGets, rLos = append(rGets, gets[i]), append(rLos, los[i])
		default:
			c.fail(1, fmt.Errorf("get %d: %s", res.Key, res.Error))
		}
	}
	c.record(rtt, answered, h, tr, r.Timing)
	return rPuts, rVersions, rGets, rLos
}

// fail counts n failed operations. A failed operation is not checked.
func (c *conn) fail(n int, err error) {
	c.failed += uint64(n)
	c.chk.failOp(err)
}

// clock and since time client-side codec work on traced runs only, so
// the timed runs carry no timers beyond the round-trip clock.
func (c *conn) clock() time.Time {
	if !c.t.traced {
		return time.Time{}
	}
	return time.Now()
}

func (c *conn) since(t0 time.Time) int64 {
	if !c.t.traced {
		return 0
	}
	return int64(time.Since(t0))
}
