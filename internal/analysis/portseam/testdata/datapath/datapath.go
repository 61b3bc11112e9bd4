// Package datapath is portseam analyzer testdata. It is loaded by the
// test harness under a datapath import path so the invariant applies.
package datapath

import "wfqsort/internal/membus"

// Structure models a datapath structure holding a fabric port (the
// functional path) and its region (whose Peek/Poke debug ports are
// legal only in audit/debug files).
type Structure struct {
	port *membus.Port
	reg  *membus.Region
}

// peeker mirrors a per-level debug-port interface.
type peeker interface {
	Peek(addr int) (uint64, error)
}

// Good drives the fabric port: scheduled, counted, observable.
func (s *Structure) Good() error {
	w, err := s.port.Read(0)
	if err != nil {
		return err
	}
	return s.port.Write(1, w)
}

// GoodRegionPort reaches the port through the region, which is still
// the functional path.
func (s *Structure) GoodRegionPort() (uint64, error) {
	return s.reg.Port().Read(0)
}

// BadPeek uses the region's debug port on a functional path.
func (s *Structure) BadPeek() (uint64, error) {
	return s.reg.Peek(0) // want `Peek debug port used in functional file datapath.go`
}

// BadPoke uses the region's test-setup port on a functional path.
func (s *Structure) BadPoke() error {
	return s.reg.Poke(0, 7) // want `Poke debug port used in functional file datapath.go`
}

// BadIndexedPeek peeks one region of a per-level slice, the shape a
// tree walk takes.
func BadIndexedPeek(levels []*membus.Region, level, idx int) (uint64, error) {
	return levels[level].Peek(idx) // want `Peek debug port used in functional file datapath.go`
}

// BadInterfacePeek reaches the debug port through an interface.
func (s *Structure) BadInterfacePeek(p peeker) (uint64, error) {
	return p.Peek(0) // want `Peek debug port used in functional file datapath.go`
}

// JustifiedPeek carries an ignore directive with a reason and is not
// reported.
func (s *Structure) JustifiedPeek() (uint64, error) {
	//wfqlint:ignore portseam head-register shadow check reads the physical array by design
	return s.reg.Peek(0)
}
