// Package simtime provides the deterministic virtual clock and simulated
// memory allocator that every "measurement" in this repository runs on.
//
// The paper measures wall-clock import time (via patched import machinery)
// and memory footprint (via psutil). Both are noisy and hardware-dependent;
// this reproduction replaces them with a virtual clock advanced by the
// interpreter's cost model and an allocator that tracks simulated bytes.
// The marginal-cost arithmetic of the paper (Eq. 2) is unchanged — only the
// source of the numbers differs, which makes all experiments bit-
// reproducible.
package simtime

import (
	"fmt"
	"time"
)

// Clock is a deterministic virtual clock. The zero value reads 0.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock reading zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from the clock's epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative advances panic: virtual
// time is monotonic by construction, so a negative delta is always a bug in
// the caller's cost accounting.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v", d))
	}
	c.now += d
}

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.now = 0 }

// Allocator tracks simulated memory. Like the clock, it is deterministic:
// object creation in the interpreter and load_native calls in synthetic
// libraries account bytes here.
type Allocator struct {
	used int64 // bytes currently allocated
	peak int64 // high-water mark
}

// NewAllocator returns an empty allocator.
func NewAllocator() *Allocator { return &Allocator{} }

// Alloc accounts n bytes. Negative n panics.
func (a *Allocator) Alloc(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("simtime: negative alloc %d", n))
	}
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
}

// Free releases n bytes. Frees are clamped at zero so imperfect bookkeeping
// in callers can never produce a negative footprint.
func (a *Allocator) Free(n int64) {
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
}

// Used returns the bytes currently allocated.
func (a *Allocator) Used() int64 { return a.used }

// Peak returns the high-water mark.
func (a *Allocator) Peak() int64 { return a.peak }

// MB is one megabyte in bytes.
const MB int64 = 1 << 20

// MBf converts a byte count to megabytes as a float.
func MBf(bytes int64) float64 { return float64(bytes) / float64(MB) }
