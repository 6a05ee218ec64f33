package main

import (
	"testing"

	"amnt/internal/scm"
)

func TestPropertiesHoldOnEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if err := checkProperties(newKeyspace(w, 1), 1); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestSameStateDetectsDivergence(t *testing.T) {
	a, b := newController(), newController()
	for i, blk := range []uint64{1, 2, 3} {
		v := plainBlock(blk, uint64(i))
		if _, err := a.WriteBlock(0, blk, v[:]); err != nil {
			t.Fatal(err)
		}
		if i < 2 { // b misses the last write
			if _, err := b.WriteBlock(0, blk, v[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sameState(a, b, []uint64{1, 2, 3}) == nil {
		t.Fatal("controllers that saw different writes compared equal")
	}
}

func TestTamperCheckFailsWithoutTamper(t *testing.T) {
	c := newController()
	v := plainBlock(4, 2)
	if _, err := c.WriteBlock(0, 1, v[:]); err != nil {
		t.Fatal(err)
	}
	if detectsTamper(c, 1, 0) == nil {
		t.Fatal("a zero mask changes nothing, yet the tamper check passed")
	}
	if detectsTamper(c, 2, 0x01) == nil {
		t.Fatal("a block that was never written cannot be tampered with")
	}
	if err := detectsTamper(c, 1, 0x80); err != nil {
		t.Fatal(err)
	}
	var dst [scm.BlockSize]byte
	if _, err := c.ReadBlock(0, 1, dst[:]); err != nil {
		t.Fatalf("the tampered byte was not restored: %v", err)
	}
}

// brokenCipher wraps the real engine with one fault.
type brokenCipher struct {
	cipher
	constMAC, badDecrypt bool
}

func (b brokenCipher) Decrypt(addr, major uint64, minor uint8, dst, src []byte) {
	b.cipher.Decrypt(addr, major, minor, dst, src)
	if b.badDecrypt {
		dst[5] ^= 0x10
	}
}

func (b brokenCipher) MAC(addr, major uint64, minor uint8, ct []byte) uint64 {
	if b.constMAC {
		return 42
	}
	return b.cipher.MAC(addr, major, minor, ct)
}

func TestCipherCheckFails(t *testing.T) {
	eng := newController().Engine()
	pt := plainBlock(7, 3)
	if err := checkCipher(eng, 64, pt[:]); err != nil {
		t.Fatal(err)
	}
	if checkCipher(brokenCipher{cipher: eng, badDecrypt: true}, 64, pt[:]) == nil {
		t.Error("a decrypt that does not invert encrypt passed")
	}
	if checkCipher(brokenCipher{cipher: eng, constMAC: true}, 64, pt[:]) == nil {
		t.Error("a MAC blind to the ciphertext passed")
	}
}
