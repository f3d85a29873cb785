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
// curated differential and error-parity suites.
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
		}
	})
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
