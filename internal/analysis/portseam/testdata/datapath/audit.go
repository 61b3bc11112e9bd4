package datapath

// AuditWalk observes the physical array through the debug port — legal
// here: audit* files model scrub engines with their own read ports, so
// no diagnostics are expected in this file (the analyzer's
// false-positive guard).
func (s *Structure) AuditWalk() ([]uint64, error) {
	out := make([]uint64, 0, 4)
	for addr := 0; addr < 4; addr++ {
		w, err := s.reg.Peek(addr)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// AuditRestore uses Poke for fault-free restoration, also legal in an
// audit file.
func (s *Structure) AuditRestore(addr int, w uint64) error {
	return s.reg.Poke(addr, w)
}

// AuditPeeker reaches the debug port through an interface, also legal
// in an audit file.
func (s *Structure) AuditPeeker(p peeker) (uint64, error) {
	return p.Peek(0)
}
