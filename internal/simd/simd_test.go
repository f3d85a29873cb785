package simd

import (
	"math/rand"
	"strings"
	"testing"
)

// The whole suite is differential: every kernel is pinned
// byte-for-byte against its naive scalar definition across
// adversarial placements — matches at every
// alignment and word-boundary straddle, classifier bytes adjacent to
// borrow-producing neighbors, empty and sub-word inputs.

func refIndexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func refScanJSON(b []byte) int {
	for i, c := range b {
		if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			return i
		}
	}
	return -1
}

func refHash(s string) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

// withPlacements runs f once per input placement, passing the offsets
// past an 8-byte word boundary at which f places its inputs.
// "native" starts every input on a word boundary, the layout a fresh
// allocation gets. "portable" starts them at offsets 1..7: load64
// assembles words byte by byte, so the SWAR bodies issue no unaligned
// word load and run unchanged on strict-alignment architectures, and
// no result may depend on where an input starts.
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

// placedString is placed for a string: a substring of a word-aligned
// concatenation.
func placedString(s string, off int) string {
	buf := strings.Repeat(".", off) + s + strings.Repeat(".", 16)
	return buf[off : off+len(s)]
}

func TestIndexByteDifferential(t *testing.T) {
	withPlacements(t, func(t *testing.T, offs []int) {
		// Exhaustive over short lengths, every needle position, and the
		// borrow-adjacent byte values around each classifier boundary.
		interesting := []byte{0x00, 0x01, 0x1f, 0x20, '"', ',', '\\', '\n', 0x7f, 0x80, 0xff}
		for n := 0; n <= 24; n++ {
			src := make([]byte, n)
			for _, c := range interesting {
				for pos := 0; pos <= n; pos++ {
					for i := range src {
						src[i] = byte('a' + i%26)
					}
					if pos < n {
						src[pos] = c
					}
					for _, off := range offs {
						b := placed(src, off)
						if got, want := IndexByte(b, c), refIndexByte(b, c); got != want {
							t.Fatalf("IndexByte(len=%d, c=%#x at %d, off %d) = %d, want %d", n, c, pos, off, got, want)
						}
					}
				}
			}
		}
		// Randomized, with subslices of a word-aligned buffer that start
		// at this placement's offsets.
		rng := rand.New(rand.NewSource(13))
		big := make([]byte, 4096)
		for trial := 0; trial < 2000; trial++ {
			for i := range big {
				big[i] = byte(rng.Intn(256))
			}
			off := 8*rng.Intn(8) + offs[rng.Intn(len(offs))]
			n := rng.Intn(len(big) - off)
			b := big[off : off+n]
			c := byte(rng.Intn(256))
			if got, want := IndexByte(b, c), refIndexByte(b, c); got != want {
				t.Fatalf("trial %d: IndexByte = %d, want %d", trial, got, want)
			}
		}
	})
}

func TestScanJSONDifferential(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("plain ascii with no special bytes at all"),
		[]byte(`quote"inside`),
		[]byte(`esc\ape`),
		[]byte("tab\there"),
		[]byte("ends with quote\""),
		[]byte("\x00leading control"),
		[]byte("exactly8"),
		[]byte("exactly8\""),
		[]byte("seven7s"),
		// Multi-byte UTF-8 straddling the 8-byte word boundary at
		// every offset.
		[]byte("abcdefgé straddle"),
		[]byte("abcdefgh€ straddle"),
		[]byte("abcdefg\xf0\x9f\x98\x80 emoji"),
		[]byte("\xff\xfe invalid"),
		[]byte(strings.Repeat("x", 31) + "\x1f"),
		[]byte(strings.Repeat("x", 32) + "\\"),
	}
	withPlacements(t, func(t *testing.T, offs []int) {
		for _, off := range offs {
			for _, c := range cases {
				b := placed(c, off)
				if got, want := ScanJSON(b), refScanJSON(b); got != want {
					t.Fatalf("ScanJSON(%q, off %d) = %d, want %d", b, off, got, want)
				}
			}
		}
		rng := rand.New(rand.NewSource(17))
		src := make([]byte, 80)
		for trial := 0; trial < 4000; trial++ {
			n := rng.Intn(80)
			for i := range src[:n] {
				// Bias heavily toward plain bytes so specials land at
				// random sparse positions, including none.
				if rng.Intn(12) == 0 {
					src[i] = byte(rng.Intn(256))
				} else {
					src[i] = byte(0x20 + rng.Intn(0x5f))
				}
			}
			b := placed(src[:n], offs[trial%len(offs)])
			if got, want := ScanJSON(b), refScanJSON(b); got != want {
				t.Fatalf("trial %d: ScanJSON(%q) = %d, want %d", trial, b, got, want)
			}
		}
	})
}

func TestHashDifferential(t *testing.T) {
	withPlacements(t, func(t *testing.T, offs []int) {
		// Exhaustive over every length 0..64 (covers every wide/tail
		// split) with fixed content, then randomized contents.
		base := strings.Repeat("The quick brown fox jumps over the lazy dog 0123456789!", 2)
		for n := 0; n <= 64; n++ {
			for _, off := range offs {
				s := base[:n]
				if got, want := Hash(placedString(s, off)), refHash(s); got != want {
					t.Fatalf("Hash(len %d, off %d) = %#x, want %#x", n, off, got, want)
				}
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
			if got := Hash(placedString(string(src[:n]), off)); got != want {
				t.Fatalf("trial %d: Hash = %#x, want %#x", trial, got, want)
			}
		}
	})
}

func BenchmarkIndexByte(b *testing.B) {
	buf := []byte(strings.Repeat("abcdefghijklmnopqrstuvwxyz012345", 32)) // 1 KiB, no newline
	buf[len(buf)-1] = '\n'
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if IndexByte(buf, '\n') != len(buf)-1 {
			b.Fatal("wrong index")
		}
	}
}

func BenchmarkHash(b *testing.B) {
	s := strings.Repeat("key-material/", 8)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		if Hash(s) == 0 {
			b.Fatal("unexpected zero hash")
		}
	}
}
