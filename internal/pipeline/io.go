package pipeline

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"cerfix/internal/jsonenc"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// This file provides the streaming sources and sinks of the batch
// pipeline: slice-backed (HTTP endpoint, tests), CSV (the CLI's
// file-to-file repair) and JSONL (one attribute→value object per
// line, the natural bulk format of the JSON API). The streaming pairs
// never materialize the dataset: rows are decoded on demand under the
// pipeline's in-flight window and encoded as results arrive.
//
// All of them follow the pipeline's recycling discipline. Sources
// decode into ONE reused tuple (the Source contract lets them: the
// pipeline copies it into arena storage before the next Next call) and
// amortize per-row decoding to at most one allocation — the immutable
// backing string of the row's values. Sinks encode through reused
// scratch buffers with the append-style jsonenc primitives, emitting
// bytes identical to the encoding/json output they replaced, which
// the byte-parity suites pin.

// SliceSource yields tuples from an in-memory slice.
type SliceSource struct {
	tuples []*schema.Tuple
	pos    int
}

// NewSliceSource wraps a tuple slice.
func NewSliceSource(tuples []*schema.Tuple) *SliceSource {
	return &SliceSource{tuples: tuples}
}

// Next implements Source.
func (s *SliceSource) Next() (*schema.Tuple, error) {
	if s.pos >= len(s.tuples) {
		return nil, io.EOF
	}
	tu := s.tuples[s.pos]
	s.pos++
	return tu, nil
}

// SliceSink collects results in input order. Because it retains
// results past Write, it deep-copies each one out of the pipeline's
// recycled arenas (the Result contract); the stored clones are safe
// to keep indefinitely.
type SliceSink struct {
	// Results accumulates every result the pipeline emits.
	Results []*Result
}

// Write implements Sink.
func (s *SliceSink) Write(r *Result) error {
	s.Results = append(s.Results, r.Clone())
	return nil
}

// CSVSource streams tuples from CSV under a schema. The header row
// must list exactly the schema's attributes (any order); columns are
// mapped by name, matching storage.Table.ReadCSV's contract.
//
// Decoding no longer walks bytes through encoding/csv's rune machinery
// row by row: lines come out of a buffered window via bytes.IndexByte
// and a quote-free line — the common shape — is sliced into fields on
// its commas with one allocation, the immutable backing string of the
// row (the same economy encoding/csv's recordBuffer gives, minus its
// per-rune work). The first '"' anywhere in the input permanently
// hands the stream to an encoding/csv reader positioned so record
// boundaries, internal line numbers and error text stay byte-identical
// to the csv-only decoder: quoted fields, bare-quote errors and
// multi-line records are its semantics, not a reimplementation. Next
// reuses one tuple per the Source contract.
type CSVSource struct {
	sch       *schema.Schema
	colToAttr []int
	line      int          // record counter for error wrapping
	tuple     schema.Tuple // reused; valid until the next Next

	// Fast-path scanner state: the line window, the physical-line
	// counter mirroring csv.Reader's numLine (blank lines count), and
	// the expected field count (the header's).
	lr       *lineReader
	physLine int
	fields   int

	// cr is nil until the first quote triggers the permanent
	// encoding/csv takeover.
	cr *csv.Reader
}

// NewCSVSource reads the header and prepares the column mapping.
func NewCSVSource(sch *schema.Schema, r io.Reader) (*CSVSource, error) {
	s := &CSVSource{sch: sch, lr: newLineReader(r, 0), line: 1}
	header, err := s.readHeader()
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
	s.colToAttr = colToAttr
	s.fields = len(header)
	s.tuple = schema.Tuple{Schema: sch, Vals: make(value.List, sch.Len())}
	return s, nil
}

// readHeader produces the header fields through the same fast-line /
// takeover machinery data records use; materializing []string is fine
// here — it runs once.
func (s *CSVSource) readHeader() ([]string, error) {
	line, tookOver, err := s.fastLine()
	if err != nil {
		return nil, err
	}
	if tookOver {
		header, err := s.cr.Read()
		if err != nil {
			return nil, err
		}
		return header, nil
	}
	return strings.Split(string(line), ","), nil
}

// fastLine returns the next non-blank record line for the fast path.
// A '"' anywhere in a raw line means encoding/csv semantics could
// diverge from plain comma-splitting (quoted field, bare-quote error,
// multi-line record), so it triggers the takeover and reports
// tookOver; the caller switches to s.cr for this and all further
// records.
func (s *CSVSource) fastLine() (line []byte, tookOver bool, err error) {
	for {
		raw, err := s.lr.next()
		if err != nil {
			return nil, false, err
		}
		s.physLine++
		if bytes.IndexByte(raw, '"') >= 0 {
			s.takeover(raw)
			return nil, true, nil
		}
		line := raw
		if n := len(line); n > 0 && line[n-1] == '\r' {
			// encoding/csv normalizes a \r\n ending to \n on every line
			// and drops a trailing \r before EOF; both reduce to
			// trimming one '\r' here.
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue // blank line: skipped but counted, like csv.Reader
		}
		if !s.lr.hadNL && s.lr.err != io.EOF {
			// Torn final line with a pending read error: encoding/csv
			// surfaces the error, not the partial record.
			return nil, false, s.lr.err
		}
		return line, false, nil
	}
}

// takeover permanently switches decoding to encoding/csv. The reader
// is fed physLine-1 blank filler lines (so its internal line counter
// lands exactly where the fast path left off — blank lines are
// skipped but counted), then the raw current line with its original
// terminator, the unconsumed window bytes, and the unread tail.
func (s *CSVSource) takeover(raw []byte) {
	pre := make([]byte, 0, s.physLine+len(raw))
	for i := 0; i < s.physLine-1; i++ {
		pre = append(pre, '\n')
	}
	pre = append(pre, raw...)
	if s.lr.hadNL {
		pre = append(pre, '\n')
	}
	s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(pre), bytes.NewReader(s.lr.rest()), s.lr.tail()))
	s.cr.ReuseRecord = true
	if s.fields > 0 {
		// Mid-stream takeover: the header was fast-parsed, so the csv
		// reader must inherit its field count instead of adopting the
		// first record it happens to see.
		s.cr.FieldsPerRecord = s.fields
	}
}

// Next implements Source. The returned tuple is reused on the next
// call.
func (s *CSVSource) Next() (*schema.Tuple, error) {
	if s.cr == nil {
		line, tookOver, err := s.fastLine()
		if err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			s.line++
			return nil, fmt.Errorf("csv line %d: %w", s.line, err)
		}
		if !tookOver {
			return s.parseRecord(line)
		}
	}
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

// parseRecord slices a quote-free line into the reused tuple: one
// backing-string allocation, commas found with bytes.IndexByte. A
// field-count violation builds the same csv.ParseError the
// encoding/csv path reports, down to the line numbers.
func (s *CSVSource) parseRecord(line []byte) (*schema.Tuple, error) {
	s.line++
	backing := string(line)
	col, off := 0, 0
	for {
		end := len(backing)
		rel := bytes.IndexByte(line[off:], ',')
		if rel >= 0 {
			end = off + rel
		}
		if col < len(s.colToAttr) {
			s.tuple.Vals[s.colToAttr[col]] = value.V(backing[off:end])
		}
		col++
		if rel < 0 {
			break
		}
		off = end + 1
	}
	if col != s.fields {
		err := &csv.ParseError{StartLine: s.physLine, Line: s.physLine, Column: 1, Err: csv.ErrFieldCount}
		return nil, fmt.Errorf("csv line %d: %w", s.line, err)
	}
	return &s.tuple, nil
}

// CSVSink streams fixed tuples to CSV: a header row of attribute
// names, then one record per result in input order. Call Flush when
// the run completes. A reused record scratch keeps Write
// allocation-free.
type CSVSink struct {
	cw  *csv.Writer
	rec []string
}

// NewCSVSink writes the header row immediately.
func NewCSVSink(sch *schema.Schema, w io.Writer) (*CSVSink, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(sch.AttrNames()); err != nil {
		return nil, fmt.Errorf("pipeline: writing csv header: %w", err)
	}
	return &CSVSink{cw: cw, rec: make([]string, 0, sch.Len())}, nil
}

// Write implements Sink, emitting the fixed tuple's values.
func (s *CSVSink) Write(r *Result) error {
	s.rec = s.rec[:0]
	for _, v := range r.Fixed.Vals {
		s.rec = append(s.rec, string(v))
	}
	return s.cw.Write(s.rec)
}

// Flush drains buffered records and reports any deferred write error.
func (s *CSVSink) Flush() error {
	s.cw.Flush()
	return s.cw.Error()
}

// JSONLSource streams tuples from JSON Lines input: one
// attribute→value object per line (blank lines are skipped). Unknown
// attributes are an error; absent ones become null, as in the HTTP
// batch endpoint. Lines are sliced out of the input with
// bytes.IndexByte and each one is decoded by a TupleDecoder, the same
// flat-object decoder POST /jobs feeds its tuples through.
//
// Next reuses one tuple per the Source contract.
type JSONLSource struct {
	lr   *lineReader
	line int
	dec  *TupleDecoder
}

// NewJSONLSource wraps a JSONL stream under sch.
func NewJSONLSource(sch *schema.Schema, r io.Reader) *JSONLSource {
	return &JSONLSource{
		// 1 MiB line cap, matching the bufio.Scanner limit the decoder
		// had before (over-long lines are bufio.ErrTooLong).
		lr:  newLineReader(r, 1<<20),
		dec: NewTupleDecoder(sch),
	}
}

// Next implements Source. The returned tuple is reused on the next
// call.
func (s *JSONLSource) Next() (*schema.Tuple, error) {
	for {
		line, err := s.lr.next()
		if err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, err // ErrTooLong / read errors: bare, like bufio.Scanner
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1] // ScanLines' dropCR
		}
		s.line++
		if len(line) == 0 {
			continue
		}
		tu, err := s.dec.Decode(line)
		if err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", s.line, err)
		}
		return tu, nil
	}
}

// TupleDecoder decodes flat JSON objects — one attribute→value object,
// the shape of a JSONL line and of an element of the tuples array of a
// POST /fix or /jobs body — into tuples under a schema. Unknown
// attributes are an error; absent ones become null.
//
// A fast path parses the common shape — a flat object of plain string
// values — with one allocation per object (the immutable backing
// string of the decoded values, the same economy encoding/csv uses):
// ScanJSON finds the next byte that needs a decision, and the clean
// run before it is copied in bulk. Anything beyond the plain shape —
// escape sequences, non-string values, invalid UTF-8, malformed
// objects, unknown attributes — falls back to encoding/json plus
// schema.TupleFromMap, so behavior and error text are theirs exactly.
// DecodePrefix is the fast path alone, over the head of a buffer, for
// readers that walk a stream of objects in place.
type TupleDecoder struct {
	sch *schema.Schema
	// idx mirrors the schema's name→position map locally: indexing a
	// map with string(bytes) compiles to an allocation-free lookup
	// only as a direct map access expression.
	idx    map[string]int
	tuple  schema.Tuple // reused; valid until the next Decode or DecodePrefix
	valBuf []byte       // raw decoded values; one backing string per object
	spans  []valSpan    // per attribute position, offsets into valBuf
	m      map[string]string
}

// valSpan locates one decoded value inside valBuf; start < 0 means the
// attribute was absent from the object.
type valSpan struct{ start, end int }

// NewTupleDecoder returns a decoder for objects of sch.
func NewTupleDecoder(sch *schema.Schema) *TupleDecoder {
	d := &TupleDecoder{
		sch:   sch,
		idx:   make(map[string]int, sch.Len()),
		spans: make([]valSpan, sch.Len()),
		m:     make(map[string]string, sch.Len()),
	}
	for i, name := range sch.AttrNames() {
		d.idx[name] = i
	}
	d.tuple = schema.Tuple{Schema: sch, Vals: make(value.List, sch.Len())}
	return d
}

// Decode decodes one object. The returned tuple may be reused by the
// next call, but its values stay valid. A JSON-level failure is
// encoding/json's error, bare (*json.SyntaxError,
// *json.UnmarshalTypeError); any other error is the schema's verdict
// on a well-formed object (an unknown attribute).
func (d *TupleDecoder) Decode(obj []byte) (*schema.Tuple, error) {
	if d.parseFast(obj) {
		return &d.tuple, nil
	}
	// Slow path: exact legacy behavior and error text. The scratch map
	// is cleared and reused; the resulting tuple is fresh, which
	// trivially satisfies the reuse contract.
	clear(d.m)
	if err := json.Unmarshal(obj, &d.m); err != nil {
		return nil, err
	}
	return schema.TupleFromMap(d.sch, d.m)
}

// parseFast decodes obj, a flat object with nothing after it but
// whitespace, through the prefix form; false means the encoding/json
// fallback decides.
func (d *TupleDecoder) parseFast(obj []byte) bool {
	_, n, _ := d.DecodePrefix(obj)
	if n == 0 {
		return false
	}
	for n < len(obj) && IsJSONSpace(obj[n]) {
		n++
	}
	return n == len(obj) // trailing bytes: the fallback rejects them
}

// DecodePrefix decodes the flat {"attr":"value",...} object at the head
// of obj, after any leading whitespace, into the reused tuple Decode
// returns, and reports the offset just past its closing brace. It is
// the one object parser: Decode's fast path is DecodePrefix over the
// whole input. It takes only the plain shape — a flat object of plain
// string values under known attributes — and decides nothing
// otherwise: end is 0 and tu nil, so the encoding/json fallback keeps
// semantics (null handling, error text) authoritative. more then
// reports whether obj ended before the object could be taken or
// refused, so a reader of a stream can retry with more bytes.
func (d *TupleDecoder) DecodePrefix(obj []byte) (tu *schema.Tuple, end int, more bool) {
	for i := range d.spans {
		d.spans[i] = valSpan{-1, -1}
	}
	d.valBuf = d.valBuf[:0]
	p, n := 0, len(obj)
	ws := func() {
		for p < n && IsJSONSpace(obj[p]) {
			p++
		}
	}
	finish := func() (*schema.Tuple, int, bool) {
		backing := string(d.valBuf)
		for i := range d.tuple.Vals {
			sp := d.spans[i]
			if sp.start < 0 {
				d.tuple.Vals[i] = value.Null
			} else {
				d.tuple.Vals[i] = value.V(backing[sp.start:sp.end])
			}
		}
		return &d.tuple, p, false
	}
	ws()
	if p >= n {
		return nil, 0, true
	}
	if obj[p] != '{' {
		return nil, 0, false
	}
	p++
	ws()
	if p >= n {
		return nil, 0, true
	}
	if obj[p] == '}' {
		p++
		return finish()
	}
	for {
		ws()
		if p >= n {
			return nil, 0, true
		}
		if obj[p] != '"' {
			return nil, 0, false
		}
		p++
		keyStart := p
		// One classifier scan covers the whole key: the first special
		// byte must be the closing quote; a backslash, control byte or
		// non-ASCII byte means an escaped/exotic key — slow path.
		rel := ScanJSON(obj[p:])
		if rel < 0 {
			return nil, 0, true // the key runs past obj
		}
		p += rel
		if obj[p] != '"' {
			return nil, 0, false
		}
		ai, known := d.idx[string(obj[keyStart:p])]
		if !known {
			return nil, 0, false // unknown attribute: slow path reports it
		}
		p++
		ws()
		if p >= n {
			return nil, 0, true
		}
		if obj[p] != ':' {
			return nil, 0, false
		}
		p++
		ws()
		if p >= n {
			return nil, 0, true
		}
		if obj[p] != '"' {
			return nil, 0, false // non-string value: slow path decides
		}
		p++
		start := len(d.valBuf)
		// The value loop advances a classifier scan at a time: the
		// clean ASCII run before each special byte is appended in bulk,
		// then the special byte decides — closing quote ends the value,
		// a valid multi-byte rune is copied whole and scanning resumes
		// after it, everything else (escapes, control bytes, invalid
		// UTF-8) rejects to the slow path.
		for {
			rel := ScanJSON(obj[p:])
			if rel < 0 {
				return nil, 0, true // the value runs past obj
			}
			d.valBuf = append(d.valBuf, obj[p:p+rel]...)
			p += rel
			c := obj[p]
			if c == '"' {
				break
			}
			if c == '\\' || c < 0x20 {
				return nil, 0, false // escapes & control chars: slow path
			}
			r, size := utf8.DecodeRune(obj[p:])
			if r == utf8.RuneError && size == 1 {
				// A rune cut off by the end of obj may yet be valid;
				// invalid UTF-8 goes to the slow path, which coerces it
				// to U+FFFD.
				return nil, 0, !utf8.FullRune(obj[p:])
			}
			d.valBuf = append(d.valBuf, obj[p:p+size]...)
			p += size
		}
		p++                                         // closing quote
		d.spans[ai] = valSpan{start, len(d.valBuf)} // duplicate keys: last wins
		ws()
		if p >= n {
			return nil, 0, true
		}
		switch obj[p] {
		case ',':
			p++
		case '}':
			p++
			return finish()
		default:
			return nil, 0, false
		}
	}
}

// IsJSONSpace reports whether c is JSON whitespace.
func IsJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// ScanJSON returns the index of the first byte of b, the inside of a
// JSON string, that a plain-string scan cannot copy verbatim: a double
// quote, a backslash, a control byte (< 0x20) or a non-ASCII byte
// (>= 0x80); -1 when there is none. The caller decides on the reported
// byte: a quote ends the string, a high byte starts a UTF-8 rune to
// validate, anything else falls back to encoding/json.
func ScanJSON(b []byte) int {
	for i, c := range b {
		if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			return i
		}
	}
	return -1
}

// jsonlRecord is JSONLSink's per-result output shape. Retained as the
// documentation of the wire format and as the encoding/json reference
// the sink's append-style encoder is byte-parity-tested against.
type jsonlRecord struct {
	Tuple     map[string]string `json:"tuple"`
	Done      bool              `json:"done"`
	Conflicts []string          `json:"conflicts,omitempty"`
	Rewrites  int               `json:"rewrites"`
}

// JSONLSink streams one JSON object per result: the fixed tuple, the
// fully-validated flag, conflict messages and the rewrite count.
// Records are rendered through a reused buffer with the jsonenc
// primitives — byte-identical to json.Encoder encoding a jsonlRecord,
// without the per-result map, slices and reflection.
type JSONLSink struct {
	w   io.Writer
	buf []byte
	// The encoded keys are bound to the first result's schema
	// (re-bound if it ever changes): encoding/json emits map keys
	// sorted, so the attribute order and key bytes are computed once.
	sch  *schema.Schema
	keys *jsonenc.MapKeys
}

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// bind computes the schema-derived encoding state.
func (s *JSONLSink) bind(sch *schema.Schema) {
	s.sch = sch
	s.keys = jsonenc.NewMapKeys(sch.AttrNames())
}

// Write implements Sink.
func (s *JSONLSink) Write(r *Result) error {
	if s.sch != r.Fixed.Schema {
		s.bind(r.Fixed.Schema)
	}
	b := append(s.buf[:0], `{"tuple":`...)
	b = jsonenc.AppendStringMap(b, s.keys, r.Fixed.Vals)
	b = append(b, `,"done":`...)
	b = jsonenc.AppendBool(b, r.Chase.AllValidated() && len(r.Chase.Conflicts) == 0)
	if len(r.Chase.Conflicts) > 0 {
		b = append(b, `,"conflicts":[`...)
		for i := range r.Chase.Conflicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendString(b, r.Chase.Conflicts[i].Error())
		}
		b = append(b, ']')
	}
	b = append(b, `,"rewrites":`...)
	b = strconv.AppendInt(b, int64(r.Chase.RewriteCount()), 10)
	b = append(b, '}', '\n')
	s.buf = b
	_, err := s.w.Write(b)
	return err
}
