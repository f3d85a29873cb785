package master

import (
	"math/rand"
	"testing"
)

// refShard is the scalar FNV-1a shard routing entryShardOf must
// reproduce: build and probe sides route every key alike, so the
// simd-backed hash must match it bit for bit.
func refShard(k string) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return int(h & (entryShardCount - 1))
}

func TestFNVMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(80)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		k := string(b)
		if got, want := entryShardOf(b), refShard(k); got != want {
			t.Fatalf("entryShardOf(%q) = %d, want %d", k, got, want)
		}
	}
}
