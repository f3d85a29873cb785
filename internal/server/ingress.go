package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// This file reads the bodies of POST /api/v1/fix and POST /api/v1/jobs
// in one pass. Both are a JSON object holding validated and tuples
// (plus input_path and format on /jobs), and each tuples element is a
// flat attribute→value object. A fast walk takes the canonical shape in
// place over a buffered window of the body — exact lowercase keys,
// plain strings, elements parsed by pipeline.TupleDecoder's prefix
// form — so on such a body no json.Decoder runs. At the first byte it
// cannot take, it hands the unread rest of the body to a json.Decoder
// token walk, which decodes the body the way encoding/json decodes it
// into the route's request struct; the handoff is permanent for the
// request. This is the CSV source's takeover into encoding/csv,
// applied to a request body.

// Top-level keys of the request bodies. /fix takes validated and
// tuples; /jobs also takes input_path and format.
const (
	keyValidated = "validated"
	keyTuples    = "tuples"
	keyInputPath = "input_path"
	keyFormat    = "format"
)

// maxWindow bounds the fast walk's window: it holds the whole body when
// the request declares a shorter length, and maxWindow bytes otherwise.
// Only a single member or element larger than half the window grows it,
// by doubling, and -max-body bounds that.
const maxWindow = 64 << 10

// windows recycles the fast walk's maxWindow-byte windows across
// requests. A window is taken for each read and given back when the
// read ends; a larger one that a doubling made is left to the
// collector, as fixBufs leaves an outgrown response buffer.
var windows = sync.Pool{New: func() any { return new([maxWindow]byte) }}

// tupleSink takes the tuples of a body as the reader decodes them.
type tupleSink interface {
	// Add takes one tuple, the decoder's reused one: valid until the
	// next Add. An error ends the read and is returned as is.
	Add(*schema.Tuple) error
	// Abort drops what the sink took: the body holds a tuple the
	// schema refused, and Add is not called again.
	Abort()
}

// bodyReader reads one POST /fix or /jobs body. A JSON-level error
// returns errBody, and only once the top-level value has been read to
// its end, so that, as with a whole-body decode, a syntax error within
// -max-body answers 400 and a value cut off at the cap answers 413; a
// body whose read hits its deadline answers 504. Errors of the sink
// return at once.
type bodyReader struct {
	body  io.Reader
	dec   *pipeline.TupleDecoder
	sink  tupleSink
	paths bool // the route also takes input_path and format (POST /jobs)
	// stall, when set, bounds each read of the body instead of the
	// whole of it (POST /jobs, whose uploads may outlast the request
	// deadline): a read waits at most this long for bytes.
	stall time.Duration

	// The request as read.
	validated []string
	inputPath string
	format    string
	// sawTuples is set by the tuples key; tuples counts the elements
	// of its array.
	sawTuples bool
	tuples    int
	// tupleErr is the schema's verdict on the first element it
	// refused, element badTuple. The body is still read to its end,
	// because a later JSON-level error must still answer 400.
	tupleErr error
	badTuple int

	// The fast walk. win is the window; buf, a part of it, holds the
	// body bytes read but not yet consumed: buf[0] is the first byte
	// after the last complete unit (member, element, bracket). at and
	// members say where that is; rerr is the read error that ended the
	// body, io.EOF at its end.
	win     []byte
	buf     []byte
	at      walkState
	members int
	rerr    error
}

// walkState is where the fast walk stands in the body.
type walkState int

const (
	beforeBody walkState = iota // nothing consumed
	inObject                    // inside the top-level object, after members members
	inTuples                    // inside the tuples array, after tuples elements
	bodyDone                    // the top-level object is closed
)

// read reads the body of r. When the request has a deadline, the
// connection's read deadline bounds the read, so a stalled body answers
// 504 and its handler returns whatever admission slot it holds: the
// request's deadline, or with stall set, stall past the start of each
// read, which fails only an upload that stops sending.
func (b *bodyReader) read(w http.ResponseWriter, r *http.Request) error {
	size := maxWindow
	if n := r.ContentLength; n > 0 && n < maxWindow {
		size = int(n)
	}
	// Nothing read from the body keeps a reference into the window: the
	// decoder copies each tuple's values into a string of its own, and
	// names and paths are copied too.
	pw := windows.Get().(*[maxWindow]byte)
	defer func() {
		b.win, b.buf = nil, nil
		windows.Put(pw)
	}()
	b.win = pw[:size]
	dl, ok := r.Context().Deadline()
	if ok && b.stall > 0 {
		dl = time.Now().Add(b.stall)
	}
	rc := http.NewResponseController(w)
	// A writer with no connection (an httptest recorder) answers
	// ErrNotSupported; its body cannot stall, so the read goes on.
	armed := ok && rc.SetReadDeadline(dl) == nil
	if armed && b.stall > 0 {
		b.body = stallReader{b.body, rc, b.stall}
	}
	err := b.walkFast()
	if armed && err == nil {
		// A read body clears the deadline, or the connection's
		// background read would fail at it and cancel the request
		// while the handler still works. After an error the deadline
		// stays, bounding what the server discards of the body before
		// it answers. A failure here leaves the deadline to expire with
		// the request.
		_ = rc.SetReadDeadline(time.Time{})
	}
	return err
}

// walkFast runs the fast walk to the end of the top-level object, or
// to the first byte it cannot take, where the token walk goes on.
func (b *bodyReader) walkFast() error {
	for b.at != bodyDone {
		n, more, err := b.step()
		switch {
		case err != nil:
			return err
		case n > 0:
			b.buf = b.buf[n:]
		case !more || b.rerr != nil:
			return b.handoff()
		default:
			b.fill()
		}
	}
	return nil
}

// fill reads more of the body into the window, after the unconsumed
// bytes, which slide to its front; when they take more than half of
// it, the window doubles first. It reads until the window is full or
// the body ends, so a cut unit is parsed again only after at least
// half a window of new bytes, and the walk stays linear in the body
// however its bytes arrive.
func (b *bodyReader) fill() {
	if 2*len(b.buf) > len(b.win) {
		b.win = make([]byte, 2*len(b.win))
	}
	n := copy(b.win, b.buf)
	m, err := io.ReadFull(b.body, b.win[n:])
	b.buf = b.win[:n+m]
	switch err {
	case nil:
	case io.ErrUnexpectedEOF:
		b.rerr = io.EOF // the body ended inside the window
	default:
		b.rerr = err
	}
}

// stallReader is a body whose connection read deadline moves to stall
// past the start of each read.
type stallReader struct {
	r     io.Reader
	rc    *http.ResponseController
	stall time.Duration
}

func (s stallReader) Read(p []byte) (int, error) {
	// A failure leaves the last deadline, which still ends a stall.
	_ = s.rc.SetReadDeadline(time.Now().Add(s.stall))
	return s.r.Read(p)
}

// step parses the next unit of the canonical shape at the head of the
// window: the opening brace, one member (of tuples, up to its opening
// bracket), one tuples element, the closing bracket or the closing
// brace. It returns the bytes the unit used, or 0, with more set when
// the window ended first and clear when the body strays from the
// canonical shape. State changes only when a unit is complete.
func (b *bodyReader) step() (n int, more bool, err error) {
	l := lexer{b: b.buf}
	switch b.at {
	case beforeBody:
		if l.next() != '{' {
			return 0, l.short, nil
		}
		l.p++
		b.at = inObject
	case inObject:
		c := l.next()
		if c == '}' {
			l.p++
			b.at = bodyDone
			break
		}
		if b.members > 0 {
			if c != ',' {
				return 0, l.short, nil
			}
			l.p++
		}
		key, ok := l.str()
		if !ok || l.next() != ':' {
			return 0, l.short, nil
		}
		l.p++
		switch string(key) {
		case keyValidated:
			vals, ok := l.strs()
			if !ok {
				return 0, l.short, nil
			}
			b.validated = vals // a repeated key: last wins
			b.members++
		case keyInputPath, keyFormat:
			s, ok := l.str()
			if !ok || !b.paths {
				return 0, l.short, nil
			}
			if string(key) == keyInputPath {
				b.inputPath = string(s)
			} else {
				b.format = string(s)
			}
			b.members++
		case keyTuples:
			if b.sawTuples || l.next() != '[' {
				return 0, l.short, nil // a repeated tuples key is the token walk's 400
			}
			l.p++
			b.sawTuples = true
			b.at = inTuples
		default:
			return 0, false, nil
		}
	case inTuples:
		c := l.next()
		if c == ']' {
			l.p++
			b.at = inObject
			b.members++
			break
		}
		if b.tuples > 0 {
			if c != ',' {
				return 0, l.short, nil
			}
			l.p++
		}
		tu, n, more := b.dec.DecodePrefix(l.b[l.p:])
		if n == 0 {
			return 0, more, nil
		}
		l.p += n
		if err := b.tuple(tu, nil); err != nil {
			return 0, false, err
		}
	}
	return l.p, false, nil
}

// tuple counts one tuples element and passes it on: the first schema
// refusal is kept and aborts the sink; until then each tuple goes to
// the sink.
func (b *bodyReader) tuple(tu *schema.Tuple, err error) error {
	i := b.tuples
	b.tuples++
	switch {
	case err != nil:
		if b.tupleErr == nil {
			b.tupleErr, b.badTuple = err, i
			b.sink.Abort()
		}
		return nil
	case b.tupleErr != nil:
		return nil
	}
	return b.sink.Add(tu)
}

// lexer scans plain JSON over the fast walk's window.
type lexer struct {
	b     []byte
	p     int
	short bool // the window ended before the scan could decide
}

// next skips whitespace and returns the byte there, or 0 with short
// set when the window ends first.
func (l *lexer) next() byte {
	for l.p < len(l.b) && pipeline.IsJSONSpace(l.b[l.p]) {
		l.p++
	}
	if l.p == len(l.b) {
		l.short = true
		return 0
	}
	return l.b[l.p]
}

// str scans a string of ASCII with no escapes or control bytes and
// returns its contents; any other string is the token walk's to decode.
func (l *lexer) str() ([]byte, bool) {
	if l.next() != '"' {
		return nil, false
	}
	s := l.b[l.p+1:]
	i := pipeline.ScanJSON(s)
	switch {
	case i < 0:
		l.short = true
		return nil, false
	case s[i] != '"':
		return nil, false
	}
	l.p += i + 2
	return s[:i], true
}

// strs scans an array of str strings.
func (l *lexer) strs() ([]string, bool) {
	if l.next() != '[' {
		return nil, false
	}
	l.p++
	vals := []string{}
	if l.next() == ']' {
		l.p++
		return vals, true
	}
	for {
		s, ok := l.str()
		if !ok {
			return nil, false
		}
		vals = append(vals, string(s))
		switch l.next() {
		case ',':
			l.p++
		case ']':
			l.p++
			return vals, true
		default:
			return nil, false
		}
	}
}

// handoff gives the unread rest of the body, from the end of the last
// complete unit, to the token walk. The json.Decoder first reads a
// synthetic opening that leaves it where the fast walk stopped — before
// the body, inside the top-level object after a member, or inside the
// tuples array after an element — as CSVSource feeds filler lines to
// encoding/csv. Its tokens are consumed here; the walk's state (keys
// seen, tuples counted) is the fast walk's.
func (b *bodyReader) handoff() error {
	var open string
	var tokens int
	switch {
	case b.at == beforeBody:
	case b.at == inObject && b.members == 0:
		open, tokens = `{`, 1
	case b.at == inObject:
		open, tokens = `{"":""`, 3
	case b.tuples == 0:
		open, tokens = `{"tuples":[`, 3
	default:
		open, tokens = `{"tuples":[""`, 4
	}
	rest := b.body
	if b.rerr != nil {
		rest = errReader{b.rerr}
	}
	dec := json.NewDecoder(io.MultiReader(strings.NewReader(open), bytes.NewReader(b.buf), rest))
	// Numbers are skipped, never converted: a valid number such as
	// 1e999 must not fail the read.
	dec.UseNumber()
	for range tokens {
		if _, err := dec.Token(); err != nil {
			return errBody{err}
		}
	}
	switch b.at {
	case beforeBody:
		return b.walk(dec)
	case inObject:
		return b.walkMembers(dec)
	}
	if err := b.walkElements(dec); err != nil {
		return err
	}
	return b.walkMembers(dec)
}

// errReader is a body whose read already failed.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// walk reads the body the way encoding/json decodes it into a struct
// with the route's fields while disallowing unknown ones: keys match
// case-insensitively, repeated keys are last-wins, a JSON null is the
// empty request, and bytes after the top-level value are not read. One
// divergence is deliberate: a repeated tuples key is an error, where
// encoding/json would merge the second array into the first one's maps.
func (b *bodyReader) walk(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err != nil:
		return errBody{err}
	case tok == nil:
		return nil
	case tok != json.Delim('{'):
		return skipRest(dec, depthAfter(tok), errors.New("request body must be a JSON object"))
	}
	return b.walkMembers(dec)
}

// walkMembers reads the top-level object's members through its closing
// brace.
func (b *bodyReader) walkMembers(dec *json.Decoder) error {
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return errBody{err}
		}
		key, _ := tok.(string) // in key position Token yields a string or an error
		switch {
		case strings.EqualFold(key, keyValidated):
			err = dec.Decode(&b.validated)
		case b.paths && strings.EqualFold(key, keyInputPath):
			err = dec.Decode(&b.inputPath)
		case b.paths && strings.EqualFold(key, keyFormat):
			err = dec.Decode(&b.format)
		case strings.EqualFold(key, keyTuples):
			if b.sawTuples {
				return skipRest(dec, 1, errors.New(`repeated "tuples" key`))
			}
			b.sawTuples = true
			if err := b.walkTuples(dec); err != nil {
				return err
			}
		default:
			return skipRest(dec, 1, fmt.Errorf("json: unknown field %q", key))
		}
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			return skipRest(dec, 1, err) // the type error consumed the value
		}
		if err != nil {
			return errBody{err}
		}
	}
	if _, err := dec.Token(); err != nil {
		return errBody{err}
	}
	return nil
}

// walkTuples reads the value of the tuples key.
func (b *bodyReader) walkTuples(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err != nil:
		return errBody{err}
	case tok == nil:
		return nil // "tuples": null, no tuples
	case tok != json.Delim('['):
		return skipRest(dec, 1+depthAfter(tok), errors.New("tuples must be an array of objects"))
	}
	return b.walkElements(dec)
}

// walkElements reads the tuples array's elements through its closing
// bracket. Each element is read into one reused RawMessage and decoded
// by the shared flat-object decoder.
func (b *bodyReader) walkElements(dec *json.Decoder) error {
	var raw json.RawMessage
	for dec.More() {
		if err := dec.Decode(&raw); err != nil {
			return errBody{err} // RawMessage takes any value: a syntax or read error
		}
		tu, err := b.dec.Decode(raw)
		if jsonLevel(err) {
			return skipRest(dec, 2, err)
		}
		if err := b.tuple(tu, err); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil {
		return errBody{err}
	}
	return nil
}

// errBody marks a body that is not a well-formed request: malformed
// JSON, a value of the wrong type, an unknown or repeated key (400), a
// body cut off at -max-body (413) or not read by the request deadline
// (504).
type errBody struct{ err error }

func (e errBody) Error() string { return e.err.Error() }

func (e errBody) Unwrap() error { return e.err }

// jsonLevel reports whether a TupleDecoder error is JSON-level (the
// element is not an object of strings) rather than the schema's.
func jsonLevel(err error) bool {
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	return errors.As(err, &se) || errors.As(err, &te)
}

// skipRest reads the rest of the top-level value after a JSON-level
// error at the given nesting depth. It answers the first syntax or read
// error it meets, so the -max-body cap still answers 413, and cause
// otherwise.
func skipRest(dec *json.Decoder, depth int, cause error) error {
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return errBody{err}
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
	}
	return errBody{cause}
}

// depthAfter is the nesting depth a token opens: 1 for '{' or '[', 0
// for a scalar.
func depthAfter(tok json.Token) int {
	if tok == json.Delim('{') || tok == json.Delim('[') {
		return 1
	}
	return 0
}
