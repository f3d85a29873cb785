package simd

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// The hash is pinned bit for bit to the standard library's FNV-1a
// across every short length, random contents and input placements:
// rule-index shard routing depends on it never moving.

func refHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// withPlacements runs f once per input placement, passing the offsets
// past an 8-byte word boundary at which f places its inputs.
// "native" starts every input on a word boundary, the layout a fresh
// allocation gets. "portable" starts them at offsets 1..7, so no
// result may depend on where an input starts.
func withPlacements(t *testing.T, f func(t *testing.T, offs []int)) {
	t.Run("native", func(t *testing.T) { f(t, []int{0}) })
	t.Run("portable", func(t *testing.T) { f(t, []int{1, 2, 3, 4, 5, 6, 7}) })
}

// placed returns a copy of b that starts off bytes past a word
// boundary. The gc allocator gives every object of 16 bytes or more a
// word-aligned base, and the backing array here is always that large.
func placed(b []byte, off int) []byte {
	buf := make([]byte, off+len(b)+16)
	return buf[off : off+copy(buf[off:], b)]
}

func TestHashDifferential(t *testing.T) {
	withPlacements(t, func(t *testing.T, offs []int) {
		// Exhaustive over every length 0..64 with fixed content, then
		// randomized contents.
		base := strings.Repeat("The quick brown fox jumps over the lazy dog 0123456789!", 2)
		for n := 0; n <= 64; n++ {
			for _, off := range offs {
				s := base[:n]
				if got, want := HashBytes(placed([]byte(s), off)), refHash(s); got != want {
					t.Fatalf("HashBytes(len %d, off %d) = %#x, want %#x", n, off, got, want)
				}
			}
		}
		rng := rand.New(rand.NewSource(19))
		src := make([]byte, 100)
		for trial := 0; trial < 4000; trial++ {
			n := rng.Intn(100)
			for i := range src[:n] {
				src[i] = byte(rng.Intn(256))
			}
			off := offs[trial%len(offs)]
			want := refHash(string(src[:n]))
			if got := HashBytes(placed(src[:n], off)); got != want {
				t.Fatalf("trial %d: HashBytes = %#x, want %#x", trial, got, want)
			}
		}
	})
}

func BenchmarkHash(b *testing.B) {
	s := []byte(strings.Repeat("key-material/", 8))
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if HashBytes(s) == 0 {
			b.Fatal("unexpected zero hash")
		}
	}
}
