package pipeline

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// Differential suite for the sources' fast paths (the quote-free CSV
// line splitter and the flat-object JSONL decoder): every decode —
// values AND error text — is pinned against the pure stdlib decoders
// the fast paths replaced, across adversarial inputs (quotes inside
// fields, escapes, multi-byte UTF-8 straddling 8-byte word
// boundaries, blank lines, torn final lines, wrong field counts,
// oversized lines), across chunked readers that force every
// lineReader refill path, and under both line-ending conventions.

// refJSONLNext is the reference JSONL decoder: bufio.Scanner +
// encoding/json, the exact shape JSONLSource had before its fast path
// existed. Its outputs are authoritative for values and error text.
type refJSONL struct {
	sch  *schema.Schema
	sc   *bufio.Scanner
	line int
}

func newRefJSONL(sch *schema.Schema, r io.Reader) *refJSONL {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &refJSONL{sch: sch, sc: sc}
}

func (s *refJSONL) Next() (*schema.Tuple, error) {
	for s.sc.Scan() {
		s.line++
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		m := make(map[string]string)
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", s.line, err)
		}
		tu, err := schema.TupleFromMap(s.sch, m)
		if err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", s.line, err)
		}
		return tu, nil
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// refCSV is the reference CSV decoder: the encoding/csv-only
// CSVSource implementation the fast path replaced.
type refCSV struct {
	cr        *csv.Reader
	colToAttr []int
	line      int
	tuple     schema.Tuple
}

func newRefCSV(sch *schema.Schema, r io.Reader) (*refCSV, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading csv header: %w", err)
	}
	colToAttr := make([]int, len(header))
	seen := make(map[string]bool)
	for i, h := range header {
		idx, ok := sch.Index(h)
		if !ok {
			return nil, fmt.Errorf("pipeline: csv column %q not in schema %s", h, sch.Name())
		}
		if seen[h] {
			return nil, fmt.Errorf("pipeline: duplicate csv column %q", h)
		}
		seen[h] = true
		colToAttr[i] = idx
	}
	if len(seen) != sch.Len() {
		return nil, fmt.Errorf("pipeline: csv header has %d columns, schema %s has %d attributes",
			len(seen), sch.Name(), sch.Len())
	}
	cr.ReuseRecord = true
	s := &refCSV{cr: cr, colToAttr: colToAttr, line: 1}
	s.tuple = schema.Tuple{Schema: sch, Vals: make(value.List, sch.Len())}
	return s, nil
}

func (s *refCSV) Next() (*schema.Tuple, error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	s.line++
	if err != nil {
		return nil, fmt.Errorf("csv line %d: %w", s.line, err)
	}
	for i, cell := range rec {
		s.tuple.Vals[s.colToAttr[i]] = value.V(cell)
	}
	return &s.tuple, nil
}

type nexter interface {
	Next() (*schema.Tuple, error)
}

// step renders one Next call as a comparable string: the tuple's
// values, the error text, or EOF.
func step(s nexter) string {
	tu, err := s.Next()
	if err == io.EOF {
		return "EOF"
	}
	if err != nil {
		return "err: " + err.Error()
	}
	return fmt.Sprintf("tuple: %q", tu.Vals)
}

// drain compares two decoders call by call until both hit EOF, with a
// step cap so a divergence can't loop forever.
func drainCompare(t *testing.T, label string, got, want nexter) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		g, w := step(got), step(want)
		if g != w {
			t.Fatalf("%s: step %d diverged:\n got:  %s\n want: %s", label, i, g, w)
		}
		if g == "EOF" {
			return
		}
	}
	t.Fatalf("%s: no EOF within step cap", label)
}

// readers wraps the input in progressively nastier readers, forcing
// lineReader refill boundaries at arbitrary byte positions.
func readers(s string) map[string]func() io.Reader {
	return map[string]func() io.Reader{
		"whole":   func() io.Reader { return strings.NewReader(s) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"half":    func() io.Reader { return iotest.HalfReader(strings.NewReader(s)) },
	}
}

// withLineEndings runs f once per line-ending convention, passing the
// rewrite f applies to each input before decoding it. "native" keeps
// the input as written, '\n' ends with a few "\r\n" ones mixed in.
// "portable" turns every '\n' into "\r\n", the RFC 4180 interchange
// ending, so every line reaches the fast paths with a '\r' to trim and
// the lines already ending in "\r\n" carry a stray '\r' before it.
func withLineEndings(t *testing.T, f func(t *testing.T, ending func(string) string)) {
	t.Run("native", func(t *testing.T) { f(t, func(s string) string { return s }) })
	t.Run("portable", func(t *testing.T) {
		f(t, func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") })
	})
}

func scanSchema(t *testing.T) *schema.Schema {
	t.Helper()
	sch, err := schema.New("T", schema.Str("a"), schema.Str("b"), schema.Str("c"))
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestJSONLSourceDifferentialCurated(t *testing.T) {
	sch := scanSchema(t)
	inputs := []string{
		"",
		"\n\n\n",
		`{"a":"1","b":"2","c":"3"}` + "\n",
		`{"a":"1","b":"2","c":"3"}`, // torn final line
		`{"a":"1","b":"2","c":"3"}` + "\r\n" + `{"a":"x","b":"y","c":"z"}` + "\r\n",
		`{"a":"with \"escaped\" quotes","b":"2","c":"3"}` + "\n",
		`{"a":"é€","b":"2","c":"3"}` + "\n",
		`{"a":"é€ direct utf8","b":"2","c":"3"}` + "\n",
		// Multi-byte runes straddling 8-byte word boundaries at several
		// offsets.
		`{"a":"aé","b":"abcdefé","c":"abcdefgé"}` + "\n",
		`{"a":"abcdefg😀h","b":"€€€€","c":"x"}` + "\n",
		"{\"a\":\"\xff invalid utf8\",\"b\":\"2\",\"c\":\"3\"}\n",
		`{"a":"1"}` + "\n", // absent attrs -> null
		`{}` + "\n",
		`{"a":"1","a":"2","b":"3","c":"4"}` + "\n", // duplicate key last-wins
		`{"unknown":"1","a":"2"}` + "\n",
		`{"a":1,"b":"2","c":"3"}` + "\n", // non-string value
		`{"a":null,"b":"2","c":"3"}` + "\n",
		`{"a":"1","b":"2","c":"3"} trailing` + "\n",
		`not json at all` + "\n",
		`{"a":"unterminated` + "\n" + `{"a":"ok","b":"2","c":"3"}` + "\n",
		`  {  "a" : "spaced" , "b" : "2" , "c" : "3" }  ` + "\n",
		"{\"a\":\"tab\tcontrol\",\"b\":\"2\",\"c\":\"3\"}\n",
		`{"a":"", "b":"","c":""}` + "\n",
		strings.Repeat(`{"a":"r","b":"s","c":"t"}`+"\n", 500),
		`{"a":"` + strings.Repeat("long", 50000) + `","b":"2","c":"3"}` + "\n", // 200 KB value
	}
	withLineEndings(t, func(t *testing.T, ending func(string) string) {
		for i, in := range inputs {
			for rname, mk := range readers(ending(in)) {
				drainCompare(t, fmt.Sprintf("input %d reader %s", i, rname),
					NewJSONLSource(sch, mk()), newRefJSONL(sch, mk()))
			}
		}
	})
}

func TestJSONLSourceTooLong(t *testing.T) {
	sch := scanSchema(t)
	// One line over the 1 MiB cap: both decoders report
	// bufio.ErrTooLong bare.
	withLineEndings(t, func(t *testing.T, ending func(string) string) {
		in := ending(`{"a":"` + strings.Repeat("x", 1<<20) + `","b":"2","c":"3"}` + "\n")
		drainCompareUntilErr(t, "toolong", NewJSONLSource(sch, strings.NewReader(in)), newRefJSONL(sch, strings.NewReader(in)))
	})
}

// drainCompareUntilErr compares steps until the first non-EOF error
// (or EOF) on both sides — for inputs where the decoders legitimately
// never reach EOF (sticky oversized-line errors).
func drainCompareUntilErr(t *testing.T, label string, got, want nexter) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		g, w := step(got), step(want)
		if g != w {
			t.Fatalf("%s: step %d diverged:\n got:  %s\n want: %s", label, i, g, w)
		}
		if g == "EOF" || strings.HasPrefix(g, "err: ") {
			return
		}
	}
	t.Fatalf("%s: no terminal step within cap", label)
}

func TestJSONLSourceDifferentialRandom(t *testing.T) {
	sch := scanSchema(t)
	keys := []string{"a", "b", "c", "zz"}
	frags := []string{
		"plain", "", "x", `\"`, `\\`, `é`, "é", "€", "😀", "\xff", "\xc3",
		"word boundary pad", "1234567", "12345678", "123456789", "\\t", "	",
	}
	rng := rand.New(rand.NewSource(23))
	var b strings.Builder
	lineFor := func() string {
		switch rng.Intn(10) {
		case 0:
			return "" // blank
		case 1:
			return "garbage{"
		default:
			var sb strings.Builder
			sb.WriteByte('{')
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%q:", keys[rng.Intn(len(keys))])
				if rng.Intn(8) == 0 {
					sb.WriteString("17") // non-string value
				} else {
					sb.WriteByte('"')
					for j := rng.Intn(4); j > 0; j-- {
						sb.WriteString(frags[rng.Intn(len(frags))])
					}
					sb.WriteByte('"')
				}
			}
			sb.WriteByte('}')
			return sb.String()
		}
	}
	for i := 0; i < 400; i++ {
		b.WriteString(lineFor())
		if rng.Intn(20) != 0 || i < 399 { // occasionally torn final line
			if rng.Intn(6) == 0 {
				b.WriteString("\r\n")
			} else {
				b.WriteByte('\n')
			}
		}
	}
	in := b.String()
	withLineEndings(t, func(t *testing.T, ending func(string) string) {
		for rname, mk := range readers(ending(in)) {
			drainCompare(t, "random/"+rname, NewJSONLSource(sch, mk()), newRefJSONL(sch, mk()))
		}
	})
}

// csvPair builds both decoders, comparing constructor errors too.
func csvPair(t *testing.T, label string, sch *schema.Schema, in string, mk func() io.Reader) (nexter, nexter, bool) {
	t.Helper()
	got, gerr := NewCSVSource(sch, mk())
	want, werr := newRefCSV(sch, mk())
	gs, ws := "nil", "nil"
	if gerr != nil {
		gs = gerr.Error()
	}
	if werr != nil {
		ws = werr.Error()
	}
	if gs != ws {
		t.Fatalf("%s: constructor diverged:\n got:  %s\n want: %s", label, gs, ws)
	}
	if gerr != nil {
		return nil, nil, false
	}
	return got, want, true
}

func TestCSVSourceDifferentialCurated(t *testing.T) {
	sch := scanSchema(t)
	inputs := []string{
		"",
		"a,b,c\n",
		"a,b,c\n1,2,3\n4,5,6\n",
		"a,b,c\n1,2,3",     // torn final line
		"a,b,c\n1,2,3\r\n", // CRLF
		"a,b,c\r\n1,2,3\r\n4,5,6\r\n",
		"a,b,c\n1,2,3\r", // trailing \r before EOF
		"a,b,c\n\n\n1,2,3\n\n4,5,6\n",
		"a,b,c\n1,2\n4,5,6\n",     // too few fields, then recovery
		"a,b,c\n1,2,3,4\n4,5,6\n", // too many fields
		"a,b,c\n\"quoted\",2,3\n4,5,6\n",
		"a,b,c\n1,va\"lue,3\n4,5,6\n", // bare quote -> ParseError
		"a,b,c\n\"multi\nline\",2,3\n4,5,6\n",
		"a,b,c\n\"esc\"\"aped\",2,3\n",
		"a,b,c\n\"unterminated,2,3\n",
		"\"a\",b,c\n1,2,3\n",    // quote in header: takeover from line 1
		"a,b,c\n1,2,3\n\"4\",5", // takeover on torn final line
		"a,b,c\n,,\n",
		"a,b,c\n \"x\",2,3\n",           // quote after space: bare-quote error
		"a,b,c\n1,2,3\n" + "x\ry,2,3\n", // \r mid field stays
		"x,y,z\n1,2,3\n",                // unknown columns
		"a,b\n1,2\n",                    // missing column
		"a,b,c,a\n1,2,3,4\n",            // duplicate column
		"a,b,c\n" + strings.Repeat("1,2,3\n", 500),
		"a,b,c\n1,2," + strings.Repeat("w", 200000) + "\n", // long line forces window growth
	}
	withLineEndings(t, func(t *testing.T, ending func(string) string) {
		for i, in := range inputs {
			in = ending(in)
			for rname, mk := range readers(in) {
				label := fmt.Sprintf("input %d reader %s", i, rname)
				got, want, ok := csvPair(t, label, sch, in, mk)
				if !ok {
					continue
				}
				drainCompare(t, label, got, want)
			}
		}
	})
}

func TestCSVSourceDifferentialRandom(t *testing.T) {
	sch := scanSchema(t)
	rng := rand.New(rand.NewSource(29))
	cells := []string{"x", "", "hello", "with space", "semi;colon", "tab\there",
		"café", "naïve€", "1234567", "12345678", "emoji😀"}
	cell := func() string {
		c := cells[rng.Intn(len(cells))]
		switch rng.Intn(12) {
		case 0:
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"` // quoted
		case 1:
			return `"` + c + "\n" + c + `"` // quoted multi-line
		case 2:
			return c + `"` + c // bare quote -> error
		default:
			return c
		}
	}
	var b strings.Builder
	b.WriteString("a,b,c")
	if rng.Intn(2) == 0 {
		b.WriteString("\r\n")
	} else {
		b.WriteByte('\n')
	}
	for i := 0; i < 300; i++ {
		n := 3
		if rng.Intn(15) == 0 {
			n = 1 + rng.Intn(5) // field-count errors
		}
		if rng.Intn(15) == 0 {
			// blank line
		} else {
			for j := 0; j < n; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(cell())
			}
		}
		switch rng.Intn(8) {
		case 0:
			b.WriteString("\r\n")
		case 1:
			if i == 299 {
				continue // torn final line
			}
			b.WriteByte('\n')
		default:
			b.WriteByte('\n')
		}
	}
	in := b.String()
	withLineEndings(t, func(t *testing.T, ending func(string) string) {
		in := ending(in)
		for rname, mk := range readers(in) {
			label := "random/" + rname
			got, want, ok := csvPair(t, label, sch, in, mk)
			if !ok {
				continue
			}
			drainCompare(t, label, got, want)
		}
	})
}
