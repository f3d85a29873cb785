package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/schema"
)

// FuzzTupleDecoder holds the shared flat-object decoder to its
// definition: for any bytes, the tuple or error text equals
// json.Unmarshal into a map[string]string followed by
// schema.TupleFromMap, under a three-attribute schema and the demo
// input schema. The decoder decodes a plain object first, so state a
// previous call leaves behind would show. The seed corpus
// (testdata/fuzz/FuzzTupleDecoder) holds the JSONL lines of the
// curated differential and error-parity suites. The prefix form is held
// to Decode on the same bytes (checkPrefix).
func FuzzTupleDecoder(f *testing.F) {
	abc, err := schema.New("T", schema.Str("a"), schema.Str("b"), schema.Str("c"))
	if err != nil {
		f.Fatal(err)
	}
	schemas := []*schema.Schema{abc, dataset.CustSchema()}
	decs := make([]*TupleDecoder, len(schemas))
	for i, sch := range schemas {
		decs[i] = NewTupleDecoder(sch)
	}
	f.Fuzz(func(t *testing.T, obj []byte) {
		for i, sch := range schemas {
			if _, err := decs[i].Decode([]byte(`{"` + sch.AttrNames()[0] + `":"prior"}`)); err != nil {
				t.Fatal(err)
			}
			got, gotErr := decs[i].Decode(obj)
			var m map[string]string
			want, wantErr := (*schema.Tuple)(nil), json.Unmarshal(obj, &m)
			if wantErr == nil {
				want, wantErr = schema.TupleFromMap(sch, m)
			}
			switch {
			case gotErr == nil && wantErr == nil:
				if !got.Vals.Equal(want.Vals) {
					t.Fatalf("%s %q: got %q, want %q", sch.Name(), obj, got.Vals, want.Vals)
				}
			case gotErr == nil || wantErr == nil:
				t.Fatalf("%s %q: error %v, want %v", sch.Name(), obj, gotErr, wantErr)
			case gotErr.Error() != wantErr.Error() && !sameUnknownAttr(sch, m, gotErr, wantErr):
				t.Fatalf("%s %q:\n got error %q\nwant error %q", sch.Name(), obj, gotErr, wantErr)
			}
			checkPrefix(t, decs[i], obj)
		}
	})
}

// checkPrefix holds DecodePrefix to Decode: an object it takes at the
// head of obj decodes to the same tuple as that prefix alone, and every
// shorter head of obj asks for more bytes instead of deciding.
func checkPrefix(t *testing.T, dec *TupleDecoder, obj []byte) {
	tu, n, _ := dec.DecodePrefix(obj)
	if n == 0 {
		return
	}
	got := append([]string(nil), tu.Vals.Strings()...)
	want, err := dec.Decode(obj[:n])
	if err != nil || strings.Join(want.Vals.Strings(), "\x00") != strings.Join(got, "\x00") {
		t.Fatalf("DecodePrefix(%q) took %d bytes as %q; Decode of them: %v, %v", obj, n, got, want, err)
	}
	for k := range n {
		if tu, m, more := dec.DecodePrefix(obj[:k]); tu != nil || m != 0 || !more {
			t.Fatalf("DecodePrefix(%q) = %v, %d, %v; want nil, 0, true (a head of %q)", obj[:k], tu, m, more, obj[:n])
		}
	}
}

// sameUnknownAttr reports whether both errors reject an unknown
// attribute of m. TupleFromMap names the first unknown key its map
// iteration meets, so with several unknown keys the two sides may name
// different ones.
func sameUnknownAttr(sch *schema.Schema, m map[string]string, a, b error) bool {
	prefix := fmt.Sprintf("schema %s: unknown attribute ", sch.Name())
	for _, err := range []error{a, b} {
		key, ok := strings.CutPrefix(err.Error(), prefix)
		if !ok {
			return false
		}
		found := false
		for k := range m {
			if fmt.Sprintf("%q", k) == key && !sch.Has(k) {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}
