// Package simd holds Active, the architecture name the end-to-end
// benchmark prints in its host stamp, and nothing else: byte scanning
// is plain loops and stdlib calls, and the master rule indexes hash
// with hash/maphash.
package simd

import "runtime"

// Active names the architecture the binary was compiled for
// ("amd64", "arm64", ...).
func Active() string { return runtime.GOARCH }
