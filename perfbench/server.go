package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	_ "amnt/internal/core" // register the AMNT protocol family
	"amnt/internal/node"
	"amnt/internal/store"
	"amnt/internal/telemetry"
	"amnt/internal/telemetry/span"
)

// storeConfig is cmd/amntd's default store: 4 amnt shards of 4 MiB,
// subtree level 3, queue 64, batch 16, 4 concurrent readers per shard.
func storeConfig() store.Config {
	cfg := store.Config{
		Shards:          shards,
		ShardMemBytes:   shardMemMB << 20,
		Protocol:        "amnt",
		QueueDepth:      64,
		BatchMax:        16,
		ReadConcurrency: 4,
	}
	cfg.MEE.RecoveryWorkers = 1
	cfg.PolicyOptions.SubtreeLevel = 3
	return cfg
}

// server is amntd's serving stack inside the benchmark's process:
// store → span recorder → node → telemetry HTTP server on a loopback
// port, plus amntd's 250 ms registry sampler.
type server struct {
	st   *store.Store
	reg  *telemetry.Registry
	srv  *telemetry.Server
	base string

	hand *handlerTimes // non-nil on a traced run

	stopSample chan struct{}
	stopOnce   sync.Once
	sampleDone chan struct{}
	sampleNs   []int64 // duration of each registry Sample call; the sampler's own
}

// startServer opens the store and serves it. With traced set, a
// middleware times the node's handlers and reports each handler's
// time to the client in a response header.
func startServer(traced bool, logw io.Writer) (*server, error) {
	st, err := store.Open(storeConfig())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s := &server{st: st, stopSample: make(chan struct{}), sampleDone: make(chan struct{})}
	rec := span.New(span.Config{
		SampleEvery:   1,
		RingSize:      4096,
		Shards:        st.Shards(),
		SlowThreshold: 250 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(logw, nil)),
	})
	nd := node.New(st, rec, node.Options{ReqTimeout: 2 * time.Second})
	s.reg = telemetry.NewRegistry()
	st.RegisterMetrics(s.reg)
	rec.RegisterMetrics(s.reg)
	if traced {
		s.hand = &handlerTimes{}
	}
	s.srv, err = telemetry.Serve("127.0.0.1:0", telemetry.ServeOptions{
		Registry: s.reg,
		Progress: func() any { return st.Stats() },
		Register: func(mux *http.ServeMux) {
			if s.hand == nil {
				nd.Mount(mux)
				return
			}
			inner := http.NewServeMux()
			nd.Mount(inner)
			mux.Handle("/v1/", s.hand.wrap(inner))
		},
	})
	if err != nil {
		_ = st.Close(context.Background())
		return nil, err
	}
	s.base = "http://" + s.srv.Addr()
	go s.sample()
	return s, nil
}

// sample is amntd's sampler loop; each Sample call is timed.
func (s *server) sample() {
	defer close(s.sampleDone)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t0 := time.Now()
			s.reg.Sample(s.st.TotalCycles())
			s.sampleNs = append(s.sampleNs, int64(time.Since(t0)))
		case <-s.stopSample:
			return
		}
	}
}

// stopSampler stops the sampler, waits for it, and returns the
// duration of each Sample call it made.
func (s *server) stopSampler() []int64 {
	s.stopOnce.Do(func() { close(s.stopSample) })
	<-s.sampleDone
	return s.sampleNs
}

// close stops the HTTP server, the sampler and the store, in amntd's
// shutdown order, and waits for each.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := s.srv.Shutdown(ctx)
	s.stopSampler()
	if err := s.st.Close(ctx); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	if herr != nil {
		return fmt.Errorf("http shutdown: %w", herr)
	}
	return nil
}

// handlerHeader carries the node handler's time, in ns, up to the
// moment it started its response.
const handlerHeader = "X-Bench-Handler-Ns"

// handlerTimes is the traced run's middleware around the node's mux.
type handlerTimes struct {
	mu sync.Mutex
	ns []int64 // whole-handler time per request
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &timedWriter{ResponseWriter: w, t0: time.Now()}
		next.ServeHTTP(tw, r)
		d := int64(time.Since(tw.t0))
		h.mu.Lock()
		h.ns = append(h.ns, d)
		h.mu.Unlock()
	})
}

func (h *handlerTimes) times() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.ns...)
}

// timedWriter stamps handlerHeader when the handler starts writing.
type timedWriter struct {
	http.ResponseWriter
	t0      time.Time
	started bool
}

func (w *timedWriter) WriteHeader(code int) {
	if !w.started {
		w.started = true
		w.Header().Set(handlerHeader, strconv.FormatInt(int64(time.Since(w.t0)), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(b []byte) (int, error) {
	if !w.started {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}
