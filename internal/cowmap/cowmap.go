// Package cowmap provides the copy-on-write sharded-map primitive of
// the master rule indexes. A map is split across a fixed number of
// Shards; a snapshot marks every shard Shared in O(shard count) and
// references them from a frozen view, and the live owner copies a
// shard (Mut) before its first write into it afterwards.
package cowmap

import "cerfix/internal/simd"

// Shard is one copy-on-write segment of a sharded map. Once a
// snapshot marks it Shared, the owner must copy it (Mut) before the
// next write; the marked shard object itself is then immutable
// forever, so snapshot readers need no synchronization. Both fields
// are guarded by the owner's write lock on the live side.
type Shard[K comparable, V any] struct {
	M      map[K]V
	Shared bool
}

// New returns an empty private shard.
func New[K comparable, V any]() *Shard[K, V] {
	return &Shard[K, V]{M: make(map[K]V)}
}

// Mut returns a privately-owned shard for the slot: the shard itself
// when no snapshot shares it, otherwise a copy stored back through
// the slot pointer. Callers hold the owner's write lock.
func Mut[K comparable, V any](slot **Shard[K, V]) *Shard[K, V] {
	s := *slot
	if !s.Shared {
		return s
	}
	cp := &Shard[K, V]{M: make(map[K]V, len(s.M))}
	for k, v := range s.M {
		cp.M[k] = v
	}
	*slot = cp
	return cp
}

// MutMap applies the same discipline to an unsharded registry map
// guarded by its own shared flag: when a snapshot shares the map, a
// shallow copy replaces it (and clears the flag) before the caller
// writes. Callers hold the owner's write lock.
func MutMap[K comparable, V any](m *map[K]V, shared *bool) map[K]V {
	if *shared {
		cp := make(map[K]V, len(*m))
		for k, v := range *m {
			cp[k] = v
		}
		*m = cp
		*shared = false
	}
	return *m
}

// FNVBytes routes a byte-slice key to one of fanout shards (fanout
// must be a power of two) by its FNV-1a hash, simd.HashBytes
// (cowmap_test pins it to the scalar definition). Build and probe
// sides both route the key bytes, so a scratch-encoded probe key lands
// on the shard its string form was stored in without converting (and
// allocating) the string.
func FNVBytes(k []byte, fanout int) int { return int(simd.HashBytes(k) & uint32(fanout-1)) }
