// Package hwsim holds the clock-domain and error vocabulary shared by
// the tag sort/retrieve circuit model: a global clock, the access
// counters a memory region reports, and the sentinels for out-of-range
// addresses and detected corruption. The memories themselves are
// membus regions reached through their ports.
//
// The paper's central guarantee — the smallest tag is retrievable in a
// fixed, predictable time — is stated in clock cycles and memory accesses
// per operation. This package makes those quantities first-class so every
// higher layer can assert them in tests and report them in benchmarks.
package hwsim

import "errors"

// ErrAddressRange is returned by fabric region accesses outside
// [0, Depth).
var ErrAddressRange = errors.New("hwsim: address out of range")

// ErrCorrupt is the sentinel wrapped by every detected structural-
// integrity violation in the memory-backed sorter structures (search
// tree, translation table, tag store). The three memories hold one
// logical data structure between them; when a cross-memory invariant
// breaks — an empty node under a set marker bit, a broken list chain, a
// dangling translation entry — the detecting layer wraps this sentinel
// so that errors.Is(err, ErrCorrupt) holds across package boundaries
// and the scheduler's recovery policy can distinguish corruption from
// ordinary operational errors (full, empty, out of range).
var ErrCorrupt = errors.New("corrupt state")

// Clock models a synchronous clock domain. The zero value is a clock at
// cycle zero and is ready to use.
type Clock struct {
	cycle uint64
}

// Tick advances the clock by one cycle and returns the new cycle number.
func (c *Clock) Tick() uint64 {
	c.cycle++
	return c.cycle
}

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n uint64) {
	c.cycle += n
}

// Now returns the current cycle number.
func (c *Clock) Now() uint64 {
	return c.cycle
}

// Reset returns the clock to cycle zero.
func (c *Clock) Reset() {
	c.cycle = 0
}

// AccessStats accumulates memory traffic counters for one memory region.
type AccessStats struct {
	Reads  uint64 // completed read operations
	Writes uint64 // completed write operations
	Cycles uint64 // total cycles consumed by reads and writes
}

// Accesses returns the total number of read and write operations.
func (s AccessStats) Accesses() uint64 {
	return s.Reads + s.Writes
}
