// Package simd provides the byte-level kernels behind the hot paths
// that remain after the allocation work of earlier iterations: line
// and field scanning in the pipeline sources, FNV-1a key hashing in
// the sharded maps and the interning dictionary, and the JSON
// special-byte scan of the flat-string fast path.
//
// IndexByte is bytes.IndexByte, which the runtime vectorizes on the
// architectures that matter. The JSON classifier and the FNV mix have
// no profitable native form without hand-written assembly (the
// classifier fuses four predicates per byte, the hash chain is serial
// by definition), so they run SWAR bodies over 8-byte words: plain Go,
// no unsafe, no build tags. The differential suite pins every kernel
// byte-for-byte against a naive scalar reference.
package simd

import (
	"bytes"
	"runtime"
)

// Active names the kernel build that runs: the architecture the
// binary was compiled for ("amd64", "arm64", ...).
func Active() string { return runtime.GOARCH }

// IndexByte returns the index of the first occurrence of c in b, or
// -1. It is bytes.IndexByte.
func IndexByte(b []byte, c byte) int { return bytes.IndexByte(b, c) }

// ScanJSON returns the index of the first byte of b that the JSONL
// flat-string fast path cannot copy verbatim: a double quote, a
// backslash, a control byte (< 0x20) or a non-ASCII byte (>= 0x80).
// Returns -1 when every byte is a plain ASCII string byte. The caller
// inspects the reported byte: a quote ends the string, a high byte
// starts a UTF-8 rune to validate, anything else falls back to
// encoding/json.
func ScanJSON(b []byte) int { return scanJSONSWAR(b) }

// fnvOffset and fnvPrime are the standard 32-bit FNV-1a parameters,
// shared with the scalar references so every implementation hashes
// identically.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// Hash returns the 32-bit FNV-1a hash of s. The wide implementation
// loads 8 bytes per step and applies the 8 mix steps from the loaded
// word, which is bit-identical to the byte-at-a-time definition (the
// mix chain is inherently sequential; only the loads widen).
func Hash(s string) uint32 { return fnv1aWide(fnvOffset, s) }

// HashBytes is Hash for a byte slice: same bytes, same hash, without
// converting (and allocating) the string.
func HashBytes(b []byte) uint32 { return fnv1aWide(fnvOffset, b) }
