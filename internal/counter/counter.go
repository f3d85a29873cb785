// Package counter provides the one monotonic counter primitive behind
// every cumulative count the status API reports — admission shed
// totals and job-backlog sheds. Before it,
// each site hand-rolled its own atomic and its own JSON snapshot
// shape; one helper keeps the discipline (monotonic, race-free,
// snake_case on the wire) in one place.
package counter

import (
	"strconv"
	"sync/atomic"
)

// Monotonic is a never-decreasing counter safe for concurrent use.
// The zero value is ready; it must not be copied after first use.
type Monotonic struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Monotonic) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative — the counter only moves
// forward. Negative deltas are dropped rather than violating the
// invariant every reader (rate math, status diffs) relies on.
func (c *Monotonic) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Monotonic) Load() int64 { return c.v.Load() }

// MarshalJSON renders the counter as a bare number, so a struct of
// Monotonic fields with snake_case tags marshals exactly like the
// plain-int snapshot structs the status API already uses.
func (c *Monotonic) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

// UnmarshalJSON reads a bare number back into the counter, letting
// clients (and the API tests) decode a status snapshot into the same
// struct shapes the server marshals from.
func (c *Monotonic) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return err
	}
	c.v.Store(n)
	return nil
}
