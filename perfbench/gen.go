package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// The serving stack under test: cmd/amntd's defaults.
const (
	shards     = 4
	shardMemMB = 4
	// shardBlocks is one shard's data capacity in 64 B blocks, so the
	// largest keyspace the store holds is shards*shardBlocks keys.
	shardBlocks = shardMemMB << 20 / 64
	// hotKeys is the keyspace of the zipf workloads: 4096 blocks per
	// shard, whose counters (4 KiB), HMACs (32 KiB) and tree fit one
	// shard's 64 KiB metadata cache.
	hotKeys = 16384
	// allKeys fills every shard: 1024 counter blocks (64 KiB) and 8192
	// HMAC blocks (512 KiB) per shard, far beyond the metadata cache.
	allKeys = shards * shardBlocks
	// valueLen is the stored value: key and version, little-endian.
	valueLen = 16
	// zipfTheta is YCSB's default request skew.
	zipfTheta = 0.99
)

// workload is one traffic mix.
type workload struct {
	name     string
	keys     uint64  // keyspace 0..keys-1, all preloaded at version 1
	zipf     bool    // scrambled zipf over the keyspace; else uniform
	getShare float64 // fraction of key operations that are gets
	batch    int     // key operations per request; 1 = /v1/kv per op
	clients  int     // closed-loop load clients
	cycle    bool    // one client also power-cycles shards while the load runs
}

var workloads = []workload{
	{name: "ycsb-a-perop", keys: hotKeys, zipf: true, getShare: 0.5, batch: 1, clients: 2},
	{name: "write-batch", keys: allKeys, getShare: 0, batch: 128, clients: 2},
	{name: "read-batch", keys: hotKeys, zipf: true, getShare: 1, batch: 128, clients: 2},
	{name: "recover-mixed", keys: hotKeys, zipf: true, getShare: 0.5, batch: 128, clients: 2, cycle: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// zipfGen is YCSB's zipfian generator (Gray et al., "Quickly
// generating billion-record synthetic databases"): rank 0 is hottest.
type zipfGen struct {
	n                   float64
	theta, alpha, zetan float64
	eta, halfPowTheta   float64
}

func newZipf(n uint64, theta float64) *zipfGen {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan, zeta2 := zeta(n), zeta(2)
	return &zipfGen{
		n:            float64(n),
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipfGen) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	rank := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= uint64(z.n) {
		rank = uint64(z.n) - 1
	}
	return rank
}

// keyspace draws keys for one workload. The zipf ranks are scrambled
// by a seed-derived permutation, so each seed has its own hot set;
// rank r always lands on shard r%shards, so every seed spreads the hot
// set over the shards alike.
type keyspace struct {
	w    workload
	z    *zipfGen
	perm []uint32
}

func newKeyspace(w workload, seed int64) *keyspace {
	ks := &keyspace{w: w}
	if w.zipf {
		ks.z = newZipf(w.keys, zipfTheta)
		blocks := rand.New(rand.NewSource(seed)).Perm(int(w.keys / shards))
		ks.perm = make([]uint32, w.keys)
		for r := range ks.perm {
			ks.perm[r] = uint32(blocks[r/shards]*shards + r%shards)
		}
	}
	return ks
}

func (ks *keyspace) draw(r *rand.Rand) uint64 {
	if ks.z == nil {
		return uint64(r.Int63n(int64(ks.w.keys)))
	}
	return uint64(ks.perm[ks.z.next(r)])
}

// own moves key to the nearest key of the same shard that client c
// writes. Each key has one writer, so its versions are applied in
// issue order; ownership alternates by shard-local block, so every
// client writes to every shard, near the drawn key's popularity.
func own(key uint64, c, clients int, keys uint64) uint64 {
	block := key / shards
	block = block - block%uint64(clients) + uint64(c)
	k := block*shards + key%shards
	if k >= keys {
		k -= uint64(clients) * shards
	}
	return k
}

// stream is one client's deterministic operation sequence.
type stream struct {
	ks      *keyspace
	r       *rand.Rand
	client  int
	clients int
}

func newStream(ks *keyspace, seed int64, client, clients int) *stream {
	return &stream{
		ks:      ks,
		r:       rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)),
		client:  client,
		clients: clients,
	}
}

// next returns the keys of the next request: puts apply before gets,
// as /v1/batch does.
func (s *stream) next(puts, gets []uint64) ([]uint64, []uint64) {
	puts, gets = puts[:0], gets[:0]
	for i := 0; i < s.ks.w.batch; i++ {
		k := s.ks.draw(s.r)
		if s.r.Float64() < s.ks.w.getShare {
			gets = append(gets, k)
		} else {
			puts = append(puts, own(k, s.client, s.clients, s.ks.w.keys))
		}
	}
	return puts, gets
}

// encodeValue is the stored value of key at version.
func encodeValue(dst []byte, key, version uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst[:0], key)
	return binary.LittleEndian.AppendUint64(dst, version)
}

// decodeValue splits a stored value into key and version.
func decodeValue(v []byte) (key, version uint64, err error) {
	if len(v) != valueLen {
		return 0, 0, fmt.Errorf("value of %d bytes, want %d", len(v), valueLen)
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:]), nil
}
