package schedulers

import (
	"fmt"

	"wfqsort/internal/packet"
	"wfqsort/internal/rank"
)

// PIFO is the push-in first-out discipline: a rank.Program computes
// each packet's priority at enqueue and a rank.Store serves the
// minimum. Every tag-ordered discipline in this package except WF²Q —
// WFQ, SCFQ, VirtualClock, WF²Q+, hardware WFQ — is a PIFO with a different
// program/store pair; the bespoke tagging code they used to carry now
// lives behind the one seam.
type PIFO struct {
	prog  rank.Program
	store rank.Store
	name  string
	seq   int
}

// NewPIFO composes a rank program with a store. The discipline's name
// is the program's; when the store is a hardware or approximate backend
// its name is appended ("WFQ/heap") so schedules identify the datapath
// they were served through.
func NewPIFO(prog rank.Program, store rank.Store) (*PIFO, error) {
	if prog == nil {
		return nil, fmt.Errorf("pifo: nil program")
	}
	if store == nil {
		return nil, fmt.Errorf("pifo: nil store")
	}
	name := prog.Name()
	switch store.(type) {
	case *rank.SoftStore, *rank.EligibleStore:
		// The exact software stores are the disciplines' reference
		// semantics; the name stays the program's alone.
	default:
		name += "/" + store.Name()
	}
	return &PIFO{prog: prog, store: store, name: name}, nil
}

// Name implements Discipline.
func (d *PIFO) Name() string { return d.name }

// Enqueue implements Discipline: rank, then push.
func (d *PIFO) Enqueue(p packet.Packet, now float64) error {
	r, err := d.prog.Rank(p, now)
	if err != nil {
		return err
	}
	if err := d.store.Push(rank.Item{Packet: p, R: r, Seq: d.seq}); err != nil {
		return err
	}
	d.seq++
	return nil
}

// Dequeue implements Discipline: pop the minimum, then commit the
// program's service-time state transition.
func (d *PIFO) Dequeue(now float64) (packet.Packet, error) {
	it, err := d.store.Pop(now)
	if err != nil {
		if err == rank.ErrEmpty {
			return packet.Packet{}, fmt.Errorf("%s: empty", d.name)
		}
		return packet.Packet{}, err
	}
	d.prog.OnServe(it.Packet, it.R, now)
	return it.Packet, nil
}

// Len reports the queued packet count.
func (d *PIFO) Len() int { return d.store.Len() }
