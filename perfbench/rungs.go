package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"amnt/internal/mee"
	"amnt/internal/scm"
	"amnt/internal/store"
)

// The rungs time one layer at a time on the workload's own operation
// stream: the store without HTTP, a lone mee.Controller, and the cme
// engine. Each rung is a fixed amount of work, not a fixed time.

const (
	rungOps   = 32768 // key operations per store and mee rung
	cmeCalls  = 1 << 18
	propOps   = 2048 // writes in the epoch-vs-per-op property check
	propEpoch = 16
)

// newController is one shard's controller on its own device, built as
// the store builds it.
func newController() *mee.Controller {
	p, err := mee.NewPolicy("amnt", mee.PolicyOptions{SubtreeLevel: 3})
	if err != nil {
		panic(err) // core registers amnt at init
	}
	return mee.New(scm.New(scm.Config{CapacityBytes: shardMemMB << 20}), mee.Config{}, p)
}

// blockOf maps a key to its shard-local block: the mee and cme rungs
// fold the four shards' streams onto one controller.
func blockOf(key uint64) uint64 { return key / shards }

// plainBlock is the 64 B plaintext the store writes for key at version.
func plainBlock(key, version uint64) [scm.BlockSize]byte {
	var b [scm.BlockSize]byte
	b[0] = valueLen + 1
	copy(b[1:], encodeValue(nil, key, version))
	return b
}

// rungStream is n key operations of the workload, as one client that
// owns every key would issue them. A stream without puts or gets
// borrows the other kind's keys, so every rung times both.
func rungStream(ks *keyspace, seed int64, n int) (puts, gets []uint64) {
	s := newStream(ks, seed, 0, 1)
	var p, g []uint64
	for len(puts)+len(gets) < n {
		p, g = s.next(p, g)
		puts = append(puts, p...)
		gets = append(gets, g...)
	}
	if len(puts) == 0 {
		puts = gets
	}
	if len(gets) == 0 {
		gets = puts
	}
	return puts, gets
}

// storeRung drives the stream through Store.Put/Get (per-op workloads)
// or PutBatch/GetBatch in the workload's batch size, with no HTTP, on a
// fresh preloaded store. It returns µs per key for puts and gets.
func storeRung(ctx context.Context, ks *keyspace, seed int64) (putUs, getUs float64, err error) {
	st, err := store.Open(storeConfig())
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := st.Close(context.Background()); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := preload(ctx, st, ks.w.keys); err != nil {
		return 0, 0, err
	}
	puts, gets := rungStream(ks, seed, rungOps)
	batch := ks.w.batch
	t0 := time.Now()
	if batch == 1 {
		for _, k := range puts {
			if err := st.Put(ctx, k, encodeValue(nil, k, 2)); err != nil {
				return 0, 0, fmt.Errorf("store rung put %d: %w", k, err)
			}
		}
	} else {
		kvs := make([]store.KV, 0, batch)
		for i, k := range puts {
			kvs = append(kvs, store.KV{Key: k, Value: encodeValue(nil, k, 2)})
			if len(kvs) == batch || i == len(puts)-1 {
				if err := errors.Join(st.PutBatch(ctx, kvs)...); err != nil {
					return 0, 0, fmt.Errorf("store rung put batch: %w", err)
				}
				kvs = kvs[:0]
			}
		}
	}
	putUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(puts))
	t0 = time.Now()
	if batch == 1 {
		for _, k := range gets {
			if _, err := st.Get(ctx, k); err != nil {
				return 0, 0, fmt.Errorf("store rung get %d: %w", k, err)
			}
		}
	} else {
		for i := 0; i < len(gets); i += batch {
			_, errs := st.GetBatch(ctx, gets[i:min(i+batch, len(gets))])
			if err := errors.Join(errs...); err != nil {
				return 0, 0, fmt.Errorf("store rung get batch: %w", err)
			}
		}
	}
	getUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(gets))
	return putUs, getUs, nil
}

// meeRung times the stream on a lone controller: per-op WriteBlock,
// ReadBlock, ReadBlockConcurrent, and epochs of epochSize writes.
func meeRung(ks *keyspace, seed int64, epochSize int) ([]metric, error) {
	c := newController()
	var now uint64
	if err := commitEpochs(c, &now, blockKeys(ks.w.keys), fixed(preloadVersion), 1024); err != nil {
		return nil, err
	}
	puts, gets := rungStream(ks, seed, rungOps)
	st := c.Stats()
	hashes0, fetches0 := st.VerifyHashes.Value(), st.MetaFetches.Value()

	t0 := time.Now()
	for _, k := range puts {
		b := plainBlock(k, 2)
		cyc, err := c.WriteBlock(now, blockOf(k), b[:])
		if err != nil {
			return nil, fmt.Errorf("mee rung write: %w", err)
		}
		now += cyc
	}
	writeUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(puts))

	var dst [scm.BlockSize]byte
	t0 = time.Now()
	for _, k := range gets {
		cyc, err := c.ReadBlock(now, blockOf(k), dst[:])
		if err != nil {
			return nil, fmt.Errorf("mee rung read: %w", err)
		}
		now += cyc
	}
	readUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(gets))
	ops := float64(len(puts) + len(gets))
	hashes := float64(st.VerifyHashes.Value()-hashes0) / ops
	fetches := float64(st.MetaFetches.Value()-fetches0) / ops

	t0 = time.Now()
	for _, k := range gets {
		if _, err := c.ReadBlockConcurrent(blockOf(k), dst[:]); err != nil {
			return nil, fmt.Errorf("mee rung concurrent read: %w", err)
		}
	}
	concUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(gets))

	t0 = time.Now()
	if err := commitEpochs(c, &now, puts, fixed(3), epochSize); err != nil {
		return nil, err
	}
	epochUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(puts))

	var resident int
	for r := scm.Data; r <= scm.Shadow; r++ {
		resident += c.Device().BlocksWritten(r)
	}
	return []metric{
		{"mee.epoch_commit_us_per_key", "us", epochUs},
		{"mee.write_block_us", "us", writeUs},
		{"mee.read_block_us", "us", readUs},
		{"mee.read_concurrent_us", "us", concUs},
		{"mee.verify_hashes_per_op", "count", hashes},
		{"mee.meta_fetches_per_op", "count", fetches},
		{"scm.resident_mb", "MB", float64(resident*scm.BlockSize) / (1 << 20)},
	}, nil
}

func fixed(v uint64) func(int) uint64 { return func(int) uint64 { return v } }

// blockKeys is one key per shard-local block: 0, 4, 8, ... below n.
func blockKeys(n uint64) []uint64 {
	keys := make([]uint64, 0, n/shards)
	for k := uint64(0); k < n; k += shards {
		keys = append(keys, k)
	}
	return keys
}

// commitEpochs writes keys as group-commit epochs of size; keys[i]
// gets version(i).
func commitEpochs(c *mee.Controller, now *uint64, keys []uint64, version func(i int) uint64, size int) error {
	for i := 0; i < len(keys); i += size {
		ep := c.BeginEpoch(*now)
		for j := i; j < min(i+size, len(keys)); j++ {
			k := keys[j]
			b := plainBlock(k, version(j))
			if err := ep.Put(blockOf(k), b[:]); err != nil {
				return fmt.Errorf("epoch put: %w", err)
			}
		}
		res, err := ep.Commit()
		if err != nil {
			return fmt.Errorf("epoch commit: %w", err)
		}
		*now += res.Cycles
	}
	return nil
}

// sink keeps the cme rung's results alive.
var sink uint64

// cmeRung times the engine's primitives on the workload's blocks, in
// ns per call.
func cmeRung(ks *keyspace, seed int64) []metric {
	eng := newController().Engine()
	puts, _ := rungStream(ks, seed, 4096)
	blocks := make([][scm.BlockSize]byte, len(puts))
	for i, k := range puts {
		blocks[i] = plainBlock(k, 2)
	}
	var ct [scm.BlockSize]byte
	per := func(f func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < cmeCalls; i++ {
			f(i % len(blocks))
		}
		return float64(time.Since(t0).Nanoseconds()) / cmeCalls
	}
	enc := per(func(i int) { eng.Encrypt(blockOf(puts[i])*scm.BlockSize, 7, 3, ct[:], blocks[i][:]) })
	dec := per(func(i int) { eng.Decrypt(blockOf(puts[i])*scm.BlockSize, 7, 3, ct[:], blocks[i][:]) })
	mac := per(func(i int) { sink += eng.MAC(blockOf(puts[i])*scm.BlockSize, 7, 3, blocks[i][:]) })
	hash := per(func(i int) { sink += eng.NodeHash(4, blockOf(puts[i]), blocks[i][:]) })
	sink += uint64(ct[0])
	return []metric{
		{"cme.encrypt_ns", "ns", enc},
		{"cme.decrypt_ns", "ns", dec},
		{"cme.mac_ns", "ns", mac},
		{"cme.node_hash_ns", "ns", hash},
	}
}

// checkProperties runs the mee and cme property checks on the
// workload's stream: group-commit epochs and per-op writes reach the
// same state, a tampered data block fails its next read, and the
// cipher round-trips and binds its MAC to every ciphertext bit.
func checkProperties(ks *keyspace, seed int64) error {
	puts, _ := rungStream(ks, seed, propOps)
	epoch, perOp := newController(), newController()
	var tEpoch, tPerOp uint64
	version := func(i int) uint64 { return uint64(i) + 2 }
	if err := commitEpochs(epoch, &tEpoch, puts, version, propEpoch); err != nil {
		return err
	}
	for i, k := range puts {
		b := plainBlock(k, version(i))
		cyc, err := perOp.WriteBlock(tPerOp, blockOf(k), b[:])
		if err != nil {
			return fmt.Errorf("per-op write: %w", err)
		}
		tPerOp += cyc
	}
	blocks := make([]uint64, len(puts))
	for i, k := range puts {
		blocks[i] = blockOf(k)
	}
	if err := sameState(epoch, perOp, blocks); err != nil {
		return fmt.Errorf("epoch commit vs per-op writes: %w", err)
	}
	if err := detectsTamper(epoch, blocks[0], 0x01); err != nil {
		return err
	}
	pt := plainBlock(puts[0], 2)
	return checkCipher(epoch.Engine(), blockOf(puts[0])*scm.BlockSize, pt[:])
}

// sameState compares two controllers' roots and the plaintext each
// reads back for blocks.
func sameState(a, b *mee.Controller, blocks []uint64) error {
	if a.Root() != b.Root() {
		return errors.New("roots differ")
	}
	var va, vb [scm.BlockSize]byte
	for _, blk := range blocks {
		_, erra := a.ReadBlock(0, blk, va[:])
		_, errb := b.ReadBlock(0, blk, vb[:])
		if erra != nil || errb != nil {
			return fmt.Errorf("read back block %d: %v / %v", blk, erra, errb)
		}
		if va != vb {
			return fmt.Errorf("block %d reads back differently", blk)
		}
	}
	return nil
}

// detectsTamper XORs mask into the first byte of block's ciphertext on
// c's device and requires the next read to fail with an
// *mee.IntegrityError. The byte is restored afterwards.
func detectsTamper(c *mee.Controller, block uint64, mask byte) error {
	dev := c.Device()
	if !dev.TamperByte(scm.Data, block, 0, mask) {
		return fmt.Errorf("tamper: block %d is not on the device", block)
	}
	defer dev.TamperByte(scm.Data, block, 0, mask)
	var dst [scm.BlockSize]byte
	_, err := c.ReadBlock(0, block, dst[:])
	var ie *mee.IntegrityError
	if !errors.As(err, &ie) {
		return fmt.Errorf("tamper: block %d with byte 0 ^= %#x read back with error %v, want an integrity error", block, mask, err)
	}
	return nil
}

// cipher is the part of cme.Engine the cipher check exercises; tests
// substitute broken ones.
type cipher interface {
	Encrypt(addr, major uint64, minor uint8, dst, src []byte)
	Decrypt(addr, major uint64, minor uint8, dst, src []byte)
	MAC(addr, major uint64, minor uint8, ciphertext []byte) uint64
}

// checkCipher requires Decrypt(Encrypt(pt)) == pt and that flipping any
// one ciphertext bit changes the MAC.
func checkCipher(e cipher, addr uint64, pt []byte) error {
	ct := make([]byte, len(pt))
	back := make([]byte, len(pt))
	e.Encrypt(addr, 7, 3, ct, pt)
	e.Decrypt(addr, 7, 3, back, ct)
	if !bytes.Equal(back, pt) {
		return errors.New("cipher: Decrypt(Encrypt(x)) != x")
	}
	mac := e.MAC(addr, 7, 3, ct)
	for bit := 0; bit < 8*len(ct); bit++ {
		ct[bit/8] ^= 1 << (bit % 8)
		flipped := e.MAC(addr, 7, 3, ct)
		ct[bit/8] ^= 1 << (bit % 8)
		if flipped == mac {
			return fmt.Errorf("cipher: flipping ciphertext bit %d leaves the MAC unchanged", bit)
		}
	}
	return nil
}
