package simd

import "math/bits"

// SWAR ("SIMD within a register") kernels: 8 bytes per step through a
// uint64, plain Go, valid on every architecture. The two classifiers
// come from the classic bit-twiddling identities:
//
//	haszero(v)    = (v - 0x01..01) &^ v & 0x80..80
//	hasless(v, n) = (v - n*0x01..01) &^ v & 0x80..80   (n <= 128)
//
// Both may report false positives in bytes ABOVE (more significant
// than) a genuine match — the borrow of a matching byte's subtraction
// ripples upward — but never below one: a byte with no borrow coming
// in matches iff it genuinely satisfies the predicate. The kernels
// only ever report the FIRST match (TrailingZeros on a little-endian
// word order), which is always genuine. The differential suite in
// simd_test.go pins this against the scalar definitions.

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// load64 assembles the 8 little-endian bytes at k[i:i+8]. The compiler
// recognizes the shift-or chain and emits a single 64-bit load on
// little-endian architectures; big-endian targets pay a byte swap and
// stay correct, because the kernels only depend on "lowest byte ==
// earliest byte", which this construction guarantees everywhere.
func load64[K ~string | ~[]byte](k K, i int) uint64 {
	_ = k[i+7]
	return uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
		uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
}

// scanJSONSWAR classifies 8 bytes per step for the JSONL fast path:
// first index of '"', '\\', a control byte (< 0x20) or a non-ASCII
// byte (>= 0x80), else -1.
func scanJSONSWAR(b []byte) int {
	i, n := 0, len(b)
	for ; i+8 <= n; i += 8 {
		w := load64(b, i)
		q := w ^ swarOnes*'"'
		e := w ^ swarOnes*'\\'
		m := ((q - swarOnes) &^ q) | // '"'
			((e - swarOnes) &^ e) | // '\\'
			((w - swarOnes*0x20) &^ w) | // < 0x20
			w // >= 0x80
		if m &= swarHighs; m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < n; i++ {
		if c := b[i]; c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			return i
		}
	}
	return -1
}

// fnv1aWide is the wide FNV-1a body: one 8-byte load, then the 8 mix
// steps extracted from the word. The hash chain is the byte-serial
// FNV-1a definition exactly — widening the loads cannot change a
// single bit — so cowmap shard routing and dictionary slots always
// agree with the reference definition.
func fnv1aWide[K ~string | ~[]byte](h uint32, k K) uint32 {
	i, n := 0, len(k)
	for ; i+8 <= n; i += 8 {
		w := load64(k, i)
		h = (h ^ uint32(w&0xff)) * fnvPrime
		h = (h ^ uint32(w>>8&0xff)) * fnvPrime
		h = (h ^ uint32(w>>16&0xff)) * fnvPrime
		h = (h ^ uint32(w>>24&0xff)) * fnvPrime
		h = (h ^ uint32(w>>32&0xff)) * fnvPrime
		h = (h ^ uint32(w>>40&0xff)) * fnvPrime
		h = (h ^ uint32(w>>48&0xff)) * fnvPrime
		h = (h ^ uint32(w>>56)) * fnvPrime
	}
	for ; i < n; i++ {
		h = (h ^ uint32(k[i])) * fnvPrime
	}
	return h
}
