// Package simd holds two things: Active, the architecture name the
// end-to-end benchmark prints in its host stamp, and the plain 32-bit
// FNV-1a byte loop behind Hash/HashBytes. The hash has two consumers,
// the master rule indexes' shard routing and the value interner's
// slot hash (value.fnvString), and both depend on it staying the
// standard FNV-1a: a changed bit would move shards and interner slots.
package simd

import "runtime"

// Active names the architecture the binary was compiled for
// ("amd64", "arm64", ...).
func Active() string { return runtime.GOARCH }

// fnvOffset and fnvPrime are the standard 32-bit FNV-1a parameters.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// Hash returns the 32-bit FNV-1a hash of s.
func Hash(s string) uint32 { return fnv1a(s) }

// HashBytes is Hash for a byte slice: same bytes, same hash, without
// converting (and allocating) the string.
func HashBytes(b []byte) uint32 { return fnv1a(b) }

func fnv1a[K ~string | ~[]byte](k K) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * fnvPrime
	}
	return h
}
