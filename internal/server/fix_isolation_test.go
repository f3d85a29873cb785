package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/textutil"
)

// isoConfig is one server of the /fix isolation test: its rule set, its
// master (CustomerGen entities of one seed), and the validated list its
// bodies carry.
type isoConfig struct {
	name      string
	rules     string
	seed      uint64
	entities  int
	validated []string
	// protect lists the validated attributes the noise leaves true; a
	// noisy validated one may contradict what the rules derive.
	protect []string
	// wrong names a derived attribute that conflict bodies validate
	// with a value no master row carries.
	wrong string
}

// server builds a fresh server of the configuration.
func (c isoConfig) server(t *testing.T) http.Handler {
	t.Helper()
	sys, err := cerfix.New(dataset.CustSchema(), dataset.PersonSchema(), c.rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dataset.NewCustomerGen(c.seed).GenerateEntities(c.entities) {
		if err := sys.AddMasterRow(e.Master.Strings()...); err != nil {
			t.Fatal(err)
		}
	}
	return New(sys).Handler()
}

// isoBody is one request of the isolation test.
type isoBody struct {
	name string
	body []byte
	// cancel marks a body that is also sent with its request cancelled
	// once the body has been read.
	cancel bool
}

// bodies builds the configuration's requests: 1-tuple bodies,
// 1,000-tuple bodies that cross the 64 KiB window, a body whose
// validated values conflict with the master, and two bodies that
// answer 422, one refused by the schema midway through its tuples and
// one by its validated list after all of them.
func (c isoConfig) bodies(t *testing.T) []isoBody {
	t.Helper()
	g := dataset.NewCustomerGen(c.seed)
	ents := g.GenerateEntities(c.entities)
	pick := textutil.NewRNG(c.seed ^ 0x150)
	noise := dataset.NewNoise(c.seed+1, 0.3)
	noise.Protected = c.protect
	truths := make([]map[string]string, 1200)
	tuples := make([]map[string]string, len(truths))
	for i := range truths {
		truth := g.CleanInput(ents[pick.Intn(len(ents))])
		dirty, _ := noise.Dirty(truth, nil)
		truths[i], tuples[i] = truth.Map(), dirty.Map()
	}
	encode := func(validated []string, tuples []map[string]string) []byte {
		b, err := json.Marshal(map[string]any{"validated": validated, "tuples": tuples})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var out []isoBody
	for i := range 3 {
		out = append(out, isoBody{name: fmt.Sprintf("one-%d", i), body: encode(c.validated, tuples[i:i+1])})
	}
	for i := range 2 {
		b := encode(c.validated, tuples[100+i*100:1100+i*100])
		if len(b) <= maxWindow {
			t.Fatalf("a 1,000-tuple body is %d bytes, within one window", len(b))
		}
		out = append(out, isoBody{name: fmt.Sprintf("big-%d", i), body: b, cancel: true})
	}
	wrong := make([]map[string]string, 64)
	for i := range wrong {
		m := make(map[string]string, len(truths[i]))
		for k, v := range truths[i] {
			m[k] = v
		}
		m[c.wrong] = "nowhere-" + c.name
		wrong[i] = m
	}
	out = append(out, isoBody{name: "conflicts", body: encode(append(c.validated[:len(c.validated):len(c.validated)], c.wrong), wrong)})
	refused := append(tuples[:20:20], map[string]string{"bogus": "x"}, tuples[20])
	out = append(out,
		isoBody{name: "bad-tuple", body: encode(c.validated, refused)},
		isoBody{name: "bad-validated", body: encode(append(c.validated[:len(c.validated):len(c.validated)], "nope"), tuples[:30])})
	return out
}

// isoAnswer is what a /fix answered.
type isoAnswer struct {
	code int
	ct   string
	body string
}

// serveFix posts body to h under request ID id, with ctx as the
// request's context.
func serveFix(ctx context.Context, h http.Handler, id string, body io.Reader) isoAnswer {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/fix", body).WithContext(ctx)
	req.Header.Set("X-Request-Id", id)
	h.ServeHTTP(rec, req)
	return isoAnswer{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

// cancelOnRead is a body that cancels its request a moment after the
// handler has read it to the end, so the cancellation lands around the
// pipeline run.
type cancelOnRead struct {
	r      io.Reader
	cancel context.CancelFunc
	delay  time.Duration
	once   sync.Once
}

func (c *cancelOnRead) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		c.once.Do(func() { time.AfterFunc(c.delay, c.cancel) })
	}
	return n, err
}

// TestConcurrentFixIsolation: a /fix answers the same bytes however
// the pooled arenas it borrows — pipeline batches, the tuple batch, the
// body window, the response buffer — were used before. Two servers
// with different rule sets, masters and validated lists serve
// interleaved requests from four clients: 1-tuple and 1,000-tuple
// bodies, bodies with conflicts, bodies that answer 422, and requests
// cancelled around their pipeline run. Every answer is byte-equal to
// the same body's answer from a fresh server, and a cancelled request
// answers either that or nothing.
func TestConcurrentFixIsolation(t *testing.T) {
	demo := strings.Split(strings.TrimSpace(dataset.DemoRulesDSL), "\n")
	configs := []isoConfig{
		{name: "a", rules: dataset.DemoRulesDSL, seed: 901, entities: 300,
			validated: []string{"zip", "phn", "type", "item"}, protect: []string{"zip", "phn", "type", "item"}, wrong: "city"},
		// φ1–φ5 only, with AC validated: a noisy AC contradicts φ1.
		{name: "b", rules: strings.Join(demo[:6], "\n"), seed: 77, entities: 200,
			validated: []string{"zip", "AC", "phn", "type"}, protect: []string{"zip", "phn", "type"}, wrong: "FN"},
	}
	type job struct {
		cfg  int
		body isoBody
		id   string
		want isoAnswer
	}
	var jobs []job
	servers := make([]http.Handler, len(configs))
	for ci, c := range configs {
		servers[ci] = c.server(t)
		for _, b := range c.bodies(t) {
			id := c.name + "-" + b.name
			want := serveFix(context.Background(), c.server(t), id, bytes.NewReader(b.body))
			jobs = append(jobs, job{ci, b, id, want})
		}
	}
	// The fixture must exercise what the test is about.
	var sawConflict, saw422 bool
	for _, j := range jobs {
		sawConflict = sawConflict || strings.Contains(j.want.body, `"conflicts":[`)
		saw422 = saw422 || j.want.code == http.StatusUnprocessableEntity
		if j.want.code != http.StatusOK && j.want.code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: reference answered %d: %s", j.id, j.want.code, j.want.body)
		}
	}
	if !sawConflict || !saw422 {
		t.Fatalf("fixture: conflicts %v, 422 %v; both must be exercised", sawConflict, saw422)
	}

	const clients, rounds = 4, 24
	errs := make(chan error, clients*rounds)
	var cancelled, unanswered atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for range rounds {
				j := jobs[rng.Intn(len(jobs))]
				h := servers[j.cfg]
				if j.body.cancel && rng.Intn(2) == 0 {
					ctx, cancel := context.WithCancel(context.Background())
					body := &cancelOnRead{r: bytes.NewReader(j.body.body), cancel: cancel,
						delay: time.Duration(rng.Intn(2000)) * time.Microsecond}
					got := serveFix(ctx, h, j.id, body)
					cancel()
					cancelled.Add(1)
					if got.body == "" {
						unanswered.Add(1)
					}
					if got != j.want && got.body != "" {
						errs <- fmt.Errorf("%s (cancelled): answered %d %.200s, want %d %.200s or nothing", j.id, got.code, got.body, j.want.code, j.want.body)
					}
					continue
				}
				if got := serveFix(context.Background(), h, j.id, bytes.NewReader(j.body.body)); got != j.want {
					errs <- fmt.Errorf("%s: answered %d %.200s, want %d %.200s", j.id, got.code, got.body, j.want.code, j.want.body)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	t.Logf("%d requests cancelled, %d of them before an answer", cancelled.Load(), unanswered.Load())
	for err := range errs {
		t.Error(err)
	}
}
