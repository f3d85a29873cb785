package value

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternRoundTrip(t *testing.T) {
	d := NewDict()
	words := []string{"", "a", "ab", "Null-ish", "07", "7", "01/02/2003"}
	syms := make([]Sym, len(words))
	for i, w := range words {
		syms[i] = d.Intern(w)
	}
	for i, w := range words {
		if got := d.Str(syms[i]); got != w {
			t.Fatalf("Str(%d) = %q, want %q", syms[i], got, w)
		}
		sym, ok := d.Lookup(w)
		if !ok || sym != syms[i] {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, true", w, sym, ok, syms[i])
		}
		if again := d.Intern(w); again != syms[i] {
			t.Fatalf("re-Intern(%q) = %d, want %d", w, again, syms[i])
		}
	}
	if _, ok := d.Lookup("never interned"); ok {
		t.Fatal("Lookup found a string that was never interned")
	}
	if d.Len() != len(words) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(words))
	}
}

// TestInternDenseIDs pins the density contract the WAL relies on: ids
// are assigned 0,1,2,... in intern order.
func TestInternDenseIDs(t *testing.T) {
	d := NewDict()
	for i := 0; i < 10000; i++ {
		s := fmt.Sprintf("value-%d", i)
		if sym := d.Intern(s); sym != Sym(i) {
			t.Fatalf("Intern #%d assigned %d", i, sym)
		}
	}
	// Crossing page and table-growth boundaries must not disturb
	// earlier entries.
	for i := 0; i < 10000; i++ {
		if got := d.Str(Sym(i)); got != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Str(%d) = %q after growth", i, got)
		}
	}
}

// domainCorpus mixes parsable and unparsable ints, floats and dates,
// nulls, and plain strings that collide numerically ("7" vs "07").
var domainCorpus = []string{
	"", "0", "7", "07", "-3", "12", "120", "not-a-number",
	"3.14", "3.140", "2.5e1", "nan-ish", "1e309",
	"01/02/2003", "1/2/03", "29/02/15", "31/02/2000", "13/13/2013",
	"a", "B", "zip", "EH7 4AH", "0/0/0",
}

// TestSymCompareAgreesWithValueCompare pins what Sym equality means:
// two Syms are equal iff their strings are, so strings equal under a
// domain but not as bytes ("7" vs "07" under DInt) get distinct Syms.
func TestSymCompareAgreesWithValueCompare(t *testing.T) {
	d := NewDict()
	check := func(a, b string) error {
		sa, sb := d.Intern(a), d.Intern(b)
		if (sa == sb) != (a == b) {
			return fmt.Errorf("sym equality of (%q,%q) = %v", a, b, sa == sb)
		}
		return nil
	}
	// Exhaustive over the curated corpus.
	for _, a := range domainCorpus {
		for _, b := range domainCorpus {
			if err := check(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Randomized property check over arbitrary strings.
	f := func(a, b string) bool { return check(a, b) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Randomized numeric-looking strings collide under a domain more
	// often than arbitrary unicode does.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		a := fmt.Sprintf("%d", rng.Intn(200)-100)
		b := fmt.Sprintf("%d.%d", rng.Intn(50), rng.Intn(100))
		if err := check(a, b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInternConcurrentReaders hammers the lock-free read paths while
// writers keep appending: run with -race in CI.
func TestInternConcurrentReaders(t *testing.T) {
	d := NewDict()
	const n = 5000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s := fmt.Sprintf("w%d-%d", w%2, i) // two writers collide on purpose
				sym := d.Intern(s)
				if got := d.Str(sym); got != s {
					t.Errorf("Str(%d) = %q, want %q", sym, got, s)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s := fmt.Sprintf("w%d-%d", i%2, i%n)
				if sym, ok := d.Lookup(s); ok {
					if got := d.Str(sym); got != s {
						t.Errorf("concurrent Str(%d) = %q, want %q", sym, got, s)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != 2*n {
		t.Fatalf("Len = %d, want %d", d.Len(), 2*n)
	}
}

func TestDictStats(t *testing.T) {
	d := NewDict()
	st := d.Stats()
	if st.Syms != 0 || st.DataBytes != 0 {
		t.Fatalf("empty dict stats: %+v", st)
	}
	d.Intern("hello")
	d.Intern("world!")
	st = d.Stats()
	if st.Syms != 2 {
		t.Fatalf("Syms = %d, want 2", st.Syms)
	}
	if st.DataBytes != int64(len("hello")+len("world!")) {
		t.Fatalf("DataBytes = %d", st.DataBytes)
	}
	if st.Bytes <= st.DataBytes {
		t.Fatalf("Bytes (%d) should include arena + table overhead beyond data (%d)", st.Bytes, st.DataBytes)
	}
}

func BenchmarkDictLookupHit(b *testing.B) {
	d := NewDict()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		d.Intern(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Lookup(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
