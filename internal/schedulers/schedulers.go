// Package schedulers implements the packet service disciplines compared
// in the paper's motivation (§I-B): the round-robin family (WRR, DRR,
// MDRR) that cannot bound delay for variable-size packets, and the fair
// queueing family (WFQ, WF²Q) that approximates GPS within one packet
// time. A common non-preemptive, work-conserving link simulation engine
// runs any discipline over an arrival trace and records departures.
package schedulers

import (
	"fmt"
	"sort"

	"wfqsort/internal/packet"
	"wfqsort/internal/rank"
	"wfqsort/internal/wfq"
)

// Departure records one packet's service at the output link.
type Departure struct {
	Packet packet.Packet
	Start  float64 // service start time
	Finish float64 // last bit on the wire
}

// Discipline selects the next packet to serve. Implementations are
// driven by Run and are not safe for concurrent use.
type Discipline interface {
	// Name identifies the discipline in reports.
	Name() string
	// Enqueue admits a packet at its arrival time.
	Enqueue(p packet.Packet, now float64) error
	// Dequeue picks the next packet to serve at time now. It is only
	// called when at least one packet is queued.
	Dequeue(now float64) (packet.Packet, error)
}

// Run simulates a non-preemptive, work-conserving link of capacityBps
// serving the arrival trace under discipline d. Arrivals may be in any
// order; they are sorted by arrival time.
func Run(arrivals []packet.Packet, d Discipline, capacityBps float64) ([]Departure, error) {
	if capacityBps <= 0 {
		return nil, fmt.Errorf("schedulers: capacity %v must be positive", capacityBps)
	}
	if d == nil {
		return nil, fmt.Errorf("schedulers: nil discipline")
	}
	arr := make([]packet.Packet, len(arrivals))
	copy(arr, arrivals)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Arrival < arr[j].Arrival })

	out := make([]Departure, 0, len(arr))
	backlog := 0
	next := 0
	now := 0.0
	for next < len(arr) || backlog > 0 {
		if backlog == 0 {
			if now < arr[next].Arrival {
				now = arr[next].Arrival
			}
		}
		// Admit everything that has arrived by now.
		for next < len(arr) && arr[next].Arrival <= now {
			if err := d.Enqueue(arr[next], arr[next].Arrival); err != nil {
				return nil, fmt.Errorf("schedulers: enqueue packet %d: %w", arr[next].ID, err)
			}
			backlog++
			next++
		}
		if backlog == 0 {
			continue
		}
		p, err := d.Dequeue(now)
		if err != nil {
			return nil, fmt.Errorf("schedulers: dequeue at %v: %w", now, err)
		}
		backlog--
		finish := now + p.Bits()/capacityBps
		out = append(out, Departure{Packet: p, Start: now, Finish: finish})
		now = finish
	}
	return out, nil
}

// FIFO serves packets in arrival order (the best-effort baseline).
type FIFO struct {
	q []packet.Packet
}

// NewFIFO builds a FIFO discipline.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Discipline.
func (f *FIFO) Name() string { return "FIFO" }

// Enqueue implements Discipline.
func (f *FIFO) Enqueue(p packet.Packet, _ float64) error {
	f.q = append(f.q, p)
	return nil
}

// Dequeue implements Discipline.
func (f *FIFO) Dequeue(_ float64) (packet.Packet, error) {
	if len(f.q) == 0 {
		return packet.Packet{}, fmt.Errorf("fifo: empty")
	}
	p := f.q[0]
	f.q = f.q[1:]
	return p, nil
}

// WRR is weighted round robin (paper ref [2]): each flow gets a fixed
// packet quota per round. Quotas must be pre-normalized by mean packet
// size — the weakness the paper calls out ("WRR requires the average
// packet size to be known").
type WRR struct {
	queues  [][]packet.Packet
	quota   []int
	flow    int // current flow position
	served  int // packets served from current flow this round
	nqueued int
}

// NewWRR builds a WRR discipline with per-flow packet quotas per round.
func NewWRR(quota []int) (*WRR, error) {
	if len(quota) == 0 {
		return nil, fmt.Errorf("wrr: no flows")
	}
	for f, q := range quota {
		if q <= 0 {
			return nil, fmt.Errorf("wrr: flow %d quota %d must be positive", f, q)
		}
	}
	qs := make([]int, len(quota))
	copy(qs, quota)
	return &WRR{queues: make([][]packet.Packet, len(quota)), quota: qs}, nil
}

// Name implements Discipline.
func (w *WRR) Name() string { return "WRR" }

// Enqueue implements Discipline.
func (w *WRR) Enqueue(p packet.Packet, _ float64) error {
	if p.Flow < 0 || p.Flow >= len(w.queues) {
		return fmt.Errorf("wrr: flow %d out of range", p.Flow)
	}
	w.queues[p.Flow] = append(w.queues[p.Flow], p)
	w.nqueued++
	return nil
}

// Dequeue implements Discipline.
func (w *WRR) Dequeue(_ float64) (packet.Packet, error) {
	if w.nqueued == 0 {
		return packet.Packet{}, fmt.Errorf("wrr: empty")
	}
	for tries := 0; tries < 2*len(w.queues); tries++ {
		if w.served < w.quota[w.flow] && len(w.queues[w.flow]) > 0 {
			p := w.queues[w.flow][0]
			w.queues[w.flow] = w.queues[w.flow][1:]
			w.served++
			w.nqueued--
			return p, nil
		}
		w.flow = (w.flow + 1) % len(w.queues)
		w.served = 0
	}
	return packet.Packet{}, fmt.Errorf("wrr: scan failed with %d queued", w.nqueued)
}

// DRR is deficit round robin (paper ref [3], Shreedhar–Varghese): each
// flow accrues a byte quantum per round and serves packets while its
// deficit counter covers them, handling variable packet sizes without
// knowing their mean.
type DRR struct {
	queues  [][]packet.Packet
	quantum []int // bytes per round
	deficit []int
	active  []int // round-robin list of backlogged flows
	pos     int
	fresh   bool // current flow's deficit includes this visit's quantum
	nqueued int
}

// NewDRR builds a DRR discipline with per-flow byte quanta.
func NewDRR(quantumBytes []int) (*DRR, error) {
	if len(quantumBytes) == 0 {
		return nil, fmt.Errorf("drr: no flows")
	}
	for f, q := range quantumBytes {
		if q <= 0 {
			return nil, fmt.Errorf("drr: flow %d quantum %d must be positive", f, q)
		}
	}
	qs := make([]int, len(quantumBytes))
	copy(qs, quantumBytes)
	return &DRR{
		queues:  make([][]packet.Packet, len(quantumBytes)),
		quantum: qs,
		deficit: make([]int, len(quantumBytes)),
	}, nil
}

// Name implements Discipline.
func (d *DRR) Name() string { return "DRR" }

// Enqueue implements Discipline.
func (d *DRR) Enqueue(p packet.Packet, _ float64) error {
	if p.Flow < 0 || p.Flow >= len(d.queues) {
		return fmt.Errorf("drr: flow %d out of range", p.Flow)
	}
	if len(d.queues[p.Flow]) == 0 {
		d.active = append(d.active, p.Flow)
	}
	d.queues[p.Flow] = append(d.queues[p.Flow], p)
	d.nqueued++
	return nil
}

// Dequeue implements Discipline. One call serves one packet; the
// classical per-round deficit bookkeeping is preserved across calls via
// the visit-freshness flag.
func (d *DRR) Dequeue(_ float64) (packet.Packet, error) {
	if d.nqueued == 0 {
		return packet.Packet{}, fmt.Errorf("drr: empty")
	}
	// Progress guarantee: each unfruitful visit adds one quantum to some
	// flow, so the head packet is served within size/quantum rounds.
	const maxIter = 1 << 24
	for iter := 0; iter < maxIter; iter++ {
		if d.pos >= len(d.active) {
			d.pos = 0
		}
		flow := d.active[d.pos]
		if !d.fresh {
			d.deficit[flow] += d.quantum[flow]
			d.fresh = true
		}
		head := d.queues[flow][0]
		if head.Size <= d.deficit[flow] {
			d.deficit[flow] -= head.Size
			d.queues[flow] = d.queues[flow][1:]
			d.nqueued--
			if len(d.queues[flow]) == 0 {
				// Flow leaves the active list; forfeit its deficit.
				d.deficit[flow] = 0
				d.active = append(d.active[:d.pos], d.active[d.pos+1:]...)
				d.fresh = false
				if d.pos >= len(d.active) {
					d.pos = 0
				}
			}
			return head, nil
		}
		// Deficit exhausted: move to the next active flow.
		d.pos++
		d.fresh = false
		if d.pos >= len(d.active) {
			d.pos = 0
		}
	}
	return packet.Packet{}, fmt.Errorf("drr: scan failed with %d queued", d.nqueued)
}

// MDRR is modified deficit round robin: flow 0 is a strict-priority
// low-latency queue (the Cisco VoIP arrangement the paper mentions) and
// the remaining flows share a DRR.
type MDRR struct {
	priority []packet.Packet
	drr      *DRR
	nqueued  int
}

// NewMDRR builds an MDRR discipline; quantumBytes[0] is ignored (flow 0
// is the priority queue).
func NewMDRR(quantumBytes []int) (*MDRR, error) {
	if len(quantumBytes) < 2 {
		return nil, fmt.Errorf("mdrr: need at least 2 flows")
	}
	drr, err := NewDRR(quantumBytes)
	if err != nil {
		return nil, err
	}
	return &MDRR{drr: drr}, nil
}

// Name implements Discipline.
func (m *MDRR) Name() string { return "MDRR" }

// Enqueue implements Discipline.
func (m *MDRR) Enqueue(p packet.Packet, now float64) error {
	m.nqueued++
	if p.Flow == 0 {
		m.priority = append(m.priority, p)
		return nil
	}
	return m.drr.Enqueue(p, now)
}

// Dequeue implements Discipline.
func (m *MDRR) Dequeue(now float64) (packet.Packet, error) {
	if m.nqueued == 0 {
		return packet.Packet{}, fmt.Errorf("mdrr: empty")
	}
	m.nqueued--
	if len(m.priority) > 0 {
		p := m.priority[0]
		m.priority = m.priority[1:]
		return p, nil
	}
	return m.drr.Dequeue(now)
}

// tagged is a packet with fair-queueing tags.
type tagged struct {
	p      packet.Packet
	start  float64
	finish float64
	seq    int
}

// NewWFQ builds packet-by-packet weighted fair queueing (paper ref [1])
// over the given session weights and link capacity: packets are served
// in increasing GPS finishing-tag order, FCFS among equal tags. It is
// the rank.WFQ program over the exact software store.
func NewWFQ(weights []float64, capacityBps float64) (*PIFO, error) {
	prog, err := rank.NewWFQ(weights, capacityBps)
	if err != nil {
		return nil, err
	}
	return NewPIFO(prog, rank.NewSoftStore())
}

// WF2Q is worst-case fair weighted fair queueing (paper ref [5]): among
// packets whose GPS service has started (start tag ≤ V(now)), serve the
// smallest finishing tag. It is fairer than WFQ at the cost of the
// eligibility test.
type WF2Q struct {
	clock *wfq.Clock
	items []tagged
	seq   int
}

// NewWF2Q builds a WF²Q discipline.
func NewWF2Q(weights []float64, capacityBps float64) (*WF2Q, error) {
	c, err := wfq.NewClock(weights, capacityBps)
	if err != nil {
		return nil, err
	}
	return &WF2Q{clock: c}, nil
}

// Name implements Discipline.
func (w *WF2Q) Name() string { return "WF2Q" }

// Enqueue implements Discipline.
func (w *WF2Q) Enqueue(p packet.Packet, now float64) error {
	s, f, err := w.clock.Tag(p.Flow, p.Bits(), now)
	if err != nil {
		return err
	}
	w.items = append(w.items, tagged{p: p, start: s, finish: f, seq: w.seq})
	w.seq++
	return nil
}

// Dequeue implements Discipline.
func (w *WF2Q) Dequeue(now float64) (packet.Packet, error) {
	if len(w.items) == 0 {
		return packet.Packet{}, fmt.Errorf("wf2q: empty")
	}
	v, err := w.clock.VirtualTime(now)
	if err != nil {
		return packet.Packet{}, err
	}
	const eps = 1e-9
	best := -1
	for i, it := range w.items {
		if it.start > v+eps {
			continue // not yet eligible in GPS
		}
		if best < 0 || less(w.items[i], w.items[best]) {
			best = i
		}
	}
	if best < 0 {
		// No eligible packet (clock drift corner): fall back to the
		// earliest GPS start.
		best = 0
		for i := 1; i < len(w.items); i++ {
			if w.items[i].start < w.items[best].start {
				best = i
			}
		}
	}
	it := w.items[best]
	w.items = append(w.items[:best], w.items[best+1:]...)
	return it.p, nil
}

func less(a, b tagged) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}
