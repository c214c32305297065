package core

import "repro/internal/rngstream"

// rowCipher implements the randomized indexing of footnote 4: the
// row address is passed through a b-bit keyed block cipher before
// indexing the GCT and the RCT, so an attacker cannot choose which rows
// share a row-group. The key changes every tracking window.
//
// The cipher alternately XOR-mixes each half of the address with a
// keyed pseudorandom function of the other half (a 4-round unbalanced
// Feistel-style network), then cycle-walks to stay inside [0, rows).
// Every round is invertible given the other half, so the whole
// transform is a bijection on [0, 2^b) and, with cycle-walking, on
// [0, rows); the tests verify this exhaustively for small domains.
type rowCipher struct {
	rows   uint64
	bits   uint
	half   uint // low-half width
	keys   [4]uint32
	keyGen rngstream.SplitMix64
}

func newRowCipher(rows int, seed uint64) *rowCipher {
	b := uint(1)
	for (uint64(1) << b) < uint64(rows) {
		b++
	}
	c := &rowCipher{
		rows:   uint64(rows),
		bits:   b,
		half:   b / 2,
		keyGen: rngstream.SplitMix64{State: seed},
	}
	c.Rekey()
	return c
}

// Rekey draws fresh round keys; Hydra calls it at every window reset so
// the row-to-group mapping changes each 64 ms.
func (c *rowCipher) Rekey() {
	for i := range c.keys {
		c.keys[i] = uint32(c.keyGen.Next())
	}
}

// round is a small xorshift-multiply mix; it only needs to be a
// good-enough pseudorandom function for the Feistel construction.
func (c *rowCipher) round(x, k uint32) uint32 {
	x ^= k
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// permute applies the forward permutation once over [0, 2^bits).
func (c *rowCipher) permute(v uint64) uint64 {
	loMask := (uint64(1) << c.half) - 1
	hiBits := c.bits - c.half
	hiMask := (uint64(1) << hiBits) - 1
	lo := v & loMask
	hi := (v >> c.half) & hiMask
	for r := 0; r < 4; r++ {
		if r%2 == 0 {
			hi ^= uint64(c.round(uint32(lo), c.keys[r])) & hiMask
		} else {
			lo ^= uint64(c.round(uint32(hi), c.keys[r])) & loMask
		}
	}
	return (hi << c.half) | lo
}

// Encrypt maps a row index to its permuted index within [0, rows),
// cycle-walking out-of-range intermediate values. Cycle-walking a
// bijection stays a bijection on the restricted domain.
func (c *rowCipher) Encrypt(row uint32) uint32 {
	v := uint64(row)
	for {
		v = c.permute(v)
		if v < c.rows {
			return uint32(v)
		}
	}
}
