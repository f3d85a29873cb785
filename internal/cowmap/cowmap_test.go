package cowmap

import (
	"math/rand"
	"testing"
)

// refShard is the scalar FNV-1a routing definition FNVBytes
// replaced. Shard routing is persistent state in disguise — a key
// stored under one routing must be found under the other — so the
// simd-backed form must match it bit for bit.
func refShard(k string, fanout int) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return int(h & uint32(fanout-1))
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
		for _, fanout := range []int{1, 16, 64, 256} {
			want := refShard(k, fanout)
			if got := FNVBytes(b, fanout); got != want {
				t.Fatalf("FNVBytes(%q, %d) = %d, want %d", k, fanout, got, want)
			}
		}
	}
}
