package jsonenc

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// marshalString is the encoding/json reference for one string.
func marshalString(t *testing.T, s string) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	return string(data)
}

// stringEdgeCases are the hand-picked escaping corners: quotes,
// backslashes, every control character, the HTML set, multi-byte
// UTF-8, invalid UTF-8 and the JSONP separators. They also seed
// FuzzAppendString.
var stringEdgeCases = []string{
	"",
	"plain ascii",
	`quote " and backslash \`,
	"tab\tnewline\ncarriage\rbackspace\bformfeed\f",
	"<script>alert('x')&amp;</script>",
	"naïve café — ünïcödé 漢字 🚀",
	"line\u2028and\u2029separators",
	"\x00\x01\x02\x1e\x1f control runs",
	"\x7f del is unescaped",
	"invalid \xff\xfe utf8 \xc3\x28 seq",
	"truncated multibyte \xe2\x82",
	"1.5e-10", "-0.0", "3.141592653589793", "NaN", "1e309",
	"07", "0x1f", "998244353",
	strings.Repeat("é", 100) + "\"" + strings.Repeat("\x01", 3),
}

// TestAppendStringEdgeCases pins AppendString against encoding/json on
// stringEdgeCases.
func TestAppendStringEdgeCases(t *testing.T) {
	for _, s := range stringEdgeCases {
		want := marshalString(t, s)
		got := string(AppendString(nil, s))
		if got != want {
			t.Errorf("AppendString(%q)\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestAppendStringQuickCheck fuzzes random byte strings — biased
// toward the troublesome ranges — against encoding/json.
func TestAppendStringQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabets := [][]byte{
		[]byte("abcdefghijklmnopqrstuvwxyz0123456789.-+eE"),
		[]byte("\"\\<>&\x00\x01\x1f\x20\x7fabc"),
		[]byte("\xc3\xa9\xe2\x82\xac\xf0\x9f\x9a\x80\xff\xfeab"), // UTF-8 fragments + junk
	}
	for i := 0; i < 3000; i++ {
		alpha := alphabets[rng.Intn(len(alphabets))]
		n := rng.Intn(24)
		b := make([]byte, n)
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		s := string(b)
		want := marshalString(t, s)
		got := string(AppendString(nil, s))
		if got != want {
			t.Fatalf("iteration %d: AppendString(%q)\n got %s\nwant %s", i, s, got, want)
		}
	}
}

// TestAppendStringReusesBuffer proves appends extend dst in place.
func TestAppendStringReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	buf = append(buf, "x:"...)
	buf = AppendString(buf, "value")
	if string(buf) != `x:"value"` {
		t.Fatalf("buf = %s", buf)
	}
	if cap(buf) != 256 {
		t.Fatalf("buffer reallocated: cap %d", cap(buf))
	}
}

// TestKeyOrder matches encoding/json's sorted map-key order.
func TestKeyOrder(t *testing.T) {
	names := []string{"zip", "AC", "str", "FN", "item", "LN"}
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = "v"
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var ordered []string
	for _, i := range KeyOrder(names) {
		ordered = append(ordered, names[i])
	}
	var got []byte
	got = append(got, '{')
	for i, n := range ordered {
		if i > 0 {
			got = append(got, ',')
		}
		got = AppendString(got, n)
		got = append(got, ':')
		got = AppendString(got, "v")
	}
	got = append(got, '}')
	if string(got) != string(data) {
		t.Fatalf("key order diverges from encoding/json:\n got %s\nwant %s", got, data)
	}
}

func TestAppendBool(t *testing.T) {
	if s := string(AppendBool(nil, true)); s != "true" {
		t.Fatalf("true -> %s", s)
	}
	if s := string(AppendBool(nil, false)); s != "false" {
		t.Fatalf("false -> %s", s)
	}
}
