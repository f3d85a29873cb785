// Package jsonenc provides append-style JSON encoding primitives that
// are byte-for-byte identical to encoding/json's default output
// (json.Marshal / json.Encoder with HTML escaping on). The batch
// pipeline's sinks, the jobs runner's results.jsonl writer and the
// HTTP batch endpoint all emit per-tuple result records on the hot
// path; encoding/json allocates intermediate maps, slices and reflect
// state per record, while these primitives append into a caller-owned
// buffer that is recycled across records — zero steady-state
// allocations without changing a single output byte. The equivalence
// is not aspirational: the quick-check suite in this package compares
// AppendString against json.Marshal across control characters,
// multi-byte and invalid UTF-8, and the shape encoders built on top
// (jobs.ResultEncoder, pipeline's JSONL sink) carry their own
// byte-parity suites.
package jsonenc

import (
	"sort"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends the JSON encoding of s — including the
// surrounding quotes — to dst and returns the extended slice. The
// output is byte-identical to json.Marshal(s): HTML-relevant
// characters (<, >, &) are \u-escaped, control characters use the
// two-character escapes where they exist and \u00xx otherwise,
// invalid UTF-8 bytes become �, and U+2028/U+2029 are escaped
// for JSONP safety, exactly as encoding/json does.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Bytes < 0x20 without a short escape, plus <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// htmlSafe reports whether an ASCII byte passes through encoding/json
// unescaped under the default (HTML-escaping) encoder.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendBool appends "true" or "false".
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// KeyOrder returns the indices of names in the order encoding/json
// would emit them as map keys: ascending byte-wise string order.
func KeyOrder(names []string) []int {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	return order
}

// MapKeys is a fixed key set of string maps, encoded once: the keys in
// KeyOrder, each rendered with its quotes, its colon and, after the
// first, the comma that precedes it. Shape encoders that render an
// attribute→value map from a fixed schema build it once and reuse it
// per record, so no key is escaped per record. It is immutable once
// built.
type MapKeys struct {
	order []int    // KeyOrder(names)
	keys  []string // keys[i] is member i's `,"name":` (no comma for i == 0)
}

// NewMapKeys encodes the keys of maps over names.
func NewMapKeys(names []string) *MapKeys {
	k := &MapKeys{order: KeyOrder(names), keys: make([]string, len(names))}
	var b []byte
	for i, pos := range k.order {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, names[pos])
		k.keys[i] = string(append(b, ':'))
	}
	return k
}

// AppendStringMap appends the {"name":"value",...} object
// encoding/json would produce for a map of k's names to vals — braces
// included, keys emitted in KeyOrder — indexing vals by name position
// so string-kind value slices encode without conversion. This is THE
// tuple-object encoder: every record shape that embeds a tuple map
// (the jobs/HTTP TupleResult, the JSONL sink record, a job's
// input.jsonl line) renders it through this one copy, so the
// byte-parity contract with encoding/json's sorted map output lives in
// a single place.
func AppendStringMap[S ~string](dst []byte, k *MapKeys, vals []S) []byte {
	dst = append(dst, '{')
	for i, pos := range k.order {
		dst = append(dst, k.keys[i]...)
		dst = AppendString(dst, string(vals[pos]))
	}
	return append(dst, '}')
}
