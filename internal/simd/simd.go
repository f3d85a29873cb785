// Package simd holds two things: Active, the architecture name the
// end-to-end benchmark prints in its host stamp, and HashBytes, the
// plain 32-bit FNV-1a byte loop. The hash has one consumer, the master
// rule indexes' shard routing, which depends on it staying the
// standard FNV-1a: a changed bit would move keys between shards.
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

// HashBytes returns the 32-bit FNV-1a hash of b.
func HashBytes(b []byte) uint32 {
	h := uint32(fnvOffset)
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime
	}
	return h
}
