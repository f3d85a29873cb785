package jsonenc

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendString holds the encoders to encoding/json: AppendString
// of a string must equal json.Marshal of it, and AppendStringMap over
// MapKeys must equal json.Marshal of the equivalent map[string]string.
// Each input is two strings, a and b; the map's keys are a, b and two
// fixed names, deduplicated, and its values are drawn from the same
// strings, so escapes land in keys and values alike. The seeds are the
// edge cases of TestAppendStringEdgeCases, paired with their
// neighbours.
func FuzzAppendString(f *testing.F) {
	for i, s := range stringEdgeCases {
		f.Add(s, stringEdgeCases[(i+1)%len(stringEdgeCases)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, s := range []string{a, b} {
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("AppendString(%q)\n got %s\nwant %s", s, got, want)
			}
		}
		var names []string
		m := map[string]string{}
		for _, n := range []string{a, b, "zip", "AC"} {
			if _, ok := m[n]; !ok {
				names = append(names, n)
				m[n] = ""
			}
		}
		vals := make([]string, len(names))
		for i, n := range names {
			vals[i] = b + n + a
			m[n] = vals[i]
		}
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendStringMap([]byte("x"), NewMapKeys(names), vals)
		if !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendStringMap over %q\n got %s\nwant %s", names, got[1:], want)
		}
	})
}
