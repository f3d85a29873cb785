package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/schema"
	"cerfix/internal/textutil"
)

// fixLoad is a CustomerGen world shaped like the end-to-end benchmark's
// bulk_fix workload: a master of entities, and a pool of 30%-noise
// input tuples whose validated attributes hold their true values,
// pre-encoded as /fix tuples elements.
type fixLoad struct {
	h    http.Handler
	pool [][]byte
}

func newFixLoad(tb testing.TB, entities, pool int) *fixLoad {
	tb.Helper()
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRulesDSL)
	if err != nil {
		tb.Fatal(err)
	}
	g := dataset.NewCustomerGen(901)
	ents := g.GenerateEntities(entities)
	for _, e := range ents {
		if err := sys.AddMasterRow(e.Master.Strings()...); err != nil {
			tb.Fatal(err)
		}
	}
	pick := textutil.NewRNG(901 ^ 0x5eed)
	noise := dataset.NewNoise(902, 0.3)
	truths := make([]*schema.Tuple, pool)
	for i := range truths {
		truths[i] = g.CleanInput(ents[pick.Intn(entities)])
	}
	l := &fixLoad{h: New(sys).Handler()}
	for _, t := range truths {
		dirty, _ := noise.Dirty(t, truths)
		m := dirty.Map()
		for _, a := range []string{"zip", "phn", "type", "item"} {
			m[a] = string(t.Get(a))
		}
		b, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		l.pool = append(l.pool, b)
	}
	return l
}

// body is a /fix body of n pool tuples starting at start, wrapping.
func (l *fixLoad) body(start, n int) []byte {
	b := []byte(`{"validated":["zip","phn","type","item"],"tuples":[`)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.pool[(start+i)%len(l.pool)]...)
	}
	return append(b, "]}"...)
}

// post serves one /fix through ServeHTTP.
func (l *fixLoad) post(tb testing.TB, body []byte) {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/fix", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST /fix = %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkFixRequest serves 256-tuple /fix requests on 20,000 entities
// through ServeHTTP: body read, snapshot, pipeline and response.
func BenchmarkFixRequest(b *testing.B) {
	l := newFixLoad(b, 20000, 2048)
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = l.body(i*256, 256)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		l.post(b, bodies[i%len(bodies)])
		i++
	}
}
