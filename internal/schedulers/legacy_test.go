package schedulers

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"wfqsort/internal/packet"
	"wfqsort/internal/pqueue"
	"wfqsort/internal/wfq"
)

// This file pins the rank-seam refactor: the pre-seam WFQ, SCFQ,
// Virtual Clock, WF²Q+, and hardware-WFQ implementations (and the tag
// heap they shared) are preserved below
// verbatim (renamed legacy*), and every seeded workload must produce a
// byte-identical departure schedule — same IDs, same start and finish
// times to the last bit — through the rank.Program/rank.Store pipeline
// that replaced them.

type tagHeap struct {
	items []tagged
}

func (h tagHeap) Len() int { return len(h.items) }
func (h tagHeap) Less(i, j int) bool {
	if h.items[i].finish != h.items[j].finish {
		return h.items[i].finish < h.items[j].finish
	}
	return h.items[i].seq < h.items[j].seq
}
func (h tagHeap) Swap(i, j int)       { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *tagHeap) Push(x interface{}) { h.items = append(h.items, x.(tagged)) }
func (h *tagHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

type legacyWFQ struct {
	clock *wfq.Clock
	h     tagHeap
	seq   int
}

func newLegacyWFQ(t *testing.T, weights []float64, capacityBps float64) *legacyWFQ {
	t.Helper()
	c, err := wfq.NewClock(weights, capacityBps)
	if err != nil {
		t.Fatalf("wfq.NewClock: %v", err)
	}
	return &legacyWFQ{clock: c}
}

func (w *legacyWFQ) Name() string { return "WFQ" }

func (w *legacyWFQ) Enqueue(p packet.Packet, now float64) error {
	s, f, err := w.clock.Tag(p.Flow, p.Bits(), now)
	if err != nil {
		return err
	}
	heap.Push(&w.h, tagged{p: p, start: s, finish: f, seq: w.seq})
	w.seq++
	return nil
}

func (w *legacyWFQ) Dequeue(_ float64) (packet.Packet, error) {
	if w.h.Len() == 0 {
		return packet.Packet{}, fmt.Errorf("wfq: empty")
	}
	it, ok := heap.Pop(&w.h).(tagged)
	if !ok {
		return packet.Packet{}, fmt.Errorf("wfq: heap item type")
	}
	return it.p, nil
}

type legacySCFQ struct {
	tagger *wfq.SCFQ
	h      tagHeap
	seq    int
}

func newLegacySCFQ(t *testing.T, weights []float64, capacityBps float64) *legacySCFQ {
	t.Helper()
	tg, err := wfq.NewSCFQ(weights, capacityBps)
	if err != nil {
		t.Fatalf("wfq.NewSCFQ: %v", err)
	}
	return &legacySCFQ{tagger: tg}
}

func (s *legacySCFQ) Name() string { return "SCFQ" }

func (s *legacySCFQ) Enqueue(p packet.Packet, _ float64) error {
	f, err := s.tagger.Tag(p.Flow, p.Bits())
	if err != nil {
		return err
	}
	heap.Push(&s.h, tagged{p: p, finish: f, seq: s.seq})
	s.seq++
	return nil
}

func (s *legacySCFQ) Dequeue(_ float64) (packet.Packet, error) {
	if s.h.Len() == 0 {
		return packet.Packet{}, fmt.Errorf("scfq: empty")
	}
	it := heap.Pop(&s.h).(tagged)
	s.tagger.Serve(it.finish)
	return it.p, nil
}

type legacyVirtualClock struct {
	capacity float64
	weights  []float64
	lastF    []float64
	h        tagHeap
	seq      int
}

func newLegacyVirtualClock(t *testing.T, weights []float64, capacityBps float64) *legacyVirtualClock {
	t.Helper()
	ws := make([]float64, len(weights))
	copy(ws, weights)
	return &legacyVirtualClock{capacity: capacityBps, weights: ws, lastF: make([]float64, len(ws))}
}

func (v *legacyVirtualClock) Name() string { return "VirtualClock" }

func (v *legacyVirtualClock) Enqueue(p packet.Packet, now float64) error {
	if p.Flow < 0 || p.Flow >= len(v.weights) {
		return fmt.Errorf("vc: flow %d out of range", p.Flow)
	}
	start := now
	if v.lastF[p.Flow] > start {
		start = v.lastF[p.Flow]
	}
	finish := start + p.Bits()/(v.weights[p.Flow]*v.capacity)
	v.lastF[p.Flow] = finish
	heap.Push(&v.h, tagged{p: p, start: start, finish: finish, seq: v.seq})
	v.seq++
	return nil
}

func (v *legacyVirtualClock) Dequeue(_ float64) (packet.Packet, error) {
	if v.h.Len() == 0 {
		return packet.Packet{}, fmt.Errorf("vc: empty")
	}
	return heap.Pop(&v.h).(tagged).p, nil
}

type legacyWF2QPlus struct {
	capacity float64
	weights  []float64
	sumW     float64
	v        float64
	lastT    float64
	lastF    []float64
	queues   [][]tagged
	nqueued  int
	seq      int
}

func newLegacyWF2QPlus(t *testing.T, weights []float64, capacityBps float64) *legacyWF2QPlus {
	t.Helper()
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	ws := make([]float64, len(weights))
	copy(ws, weights)
	return &legacyWF2QPlus{
		capacity: capacityBps,
		weights:  ws,
		sumW:     sum,
		lastF:    make([]float64, len(ws)),
		queues:   make([][]tagged, len(ws)),
	}
}

func (w *legacyWF2QPlus) Name() string { return "WF2Q+" }

func (w *legacyWF2QPlus) advance(now float64) {
	if now > w.lastT {
		w.v += (now - w.lastT) / w.sumW
		w.lastT = now
	}
	minS, any := 0.0, false
	for f := range w.queues {
		if len(w.queues[f]) == 0 {
			continue
		}
		if s := w.queues[f][0].start; !any || s < minS {
			minS, any = s, true
		}
	}
	if any && minS > w.v {
		w.v = minS
	}
}

func (w *legacyWF2QPlus) Enqueue(p packet.Packet, now float64) error {
	if p.Flow < 0 || p.Flow >= len(w.queues) {
		return fmt.Errorf("wf2q+: flow %d out of range", p.Flow)
	}
	w.advance(now)
	s := w.v
	if w.lastF[p.Flow] > s {
		s = w.lastF[p.Flow]
	}
	f := s + p.Bits()/(w.weights[p.Flow]*w.capacity)
	w.lastF[p.Flow] = f
	w.queues[p.Flow] = append(w.queues[p.Flow], tagged{p: p, start: s, finish: f, seq: w.seq})
	w.seq++
	w.nqueued++
	return nil
}

func (w *legacyWF2QPlus) Dequeue(now float64) (packet.Packet, error) {
	if w.nqueued == 0 {
		return packet.Packet{}, fmt.Errorf("wf2q+: empty")
	}
	w.advance(now)
	const eps = 1e-9
	best, bestAny := -1, false
	for f := range w.queues {
		if len(w.queues[f]) == 0 {
			continue
		}
		head := w.queues[f][0]
		if head.start > w.v+eps {
			continue
		}
		if !bestAny || less(head, w.queues[best][0]) {
			best, bestAny = f, true
		}
	}
	if !bestAny {
		for f := range w.queues {
			if len(w.queues[f]) == 0 {
				continue
			}
			if best < 0 || w.queues[f][0].start < w.queues[best][0].start {
				best = f
			}
		}
	}
	head := w.queues[best][0]
	w.queues[best] = w.queues[best][1:]
	w.nqueued--
	return head.p, nil
}

type legacyHWWFQ struct {
	clock  *wfq.Clock
	q      pqueue.MinTagQueue
	gran   float64
	range_ int

	baseQ   int64
	pending map[int]packet.Packet
	next    int
}

func newLegacyHWWFQ(t *testing.T, weights []float64, capacityBps, granularity float64, tagRange int, q pqueue.MinTagQueue) *legacyHWWFQ {
	t.Helper()
	c, err := wfq.NewClock(weights, capacityBps)
	if err != nil {
		t.Fatalf("wfq.NewClock: %v", err)
	}
	return &legacyHWWFQ{clock: c, q: q, gran: granularity, range_: tagRange, pending: map[int]packet.Packet{}}
}

func (w *legacyHWWFQ) Name() string { return "WFQ/" + w.q.Name() }

func (w *legacyHWWFQ) Enqueue(p packet.Packet, now float64) error {
	_, f, err := w.clock.Tag(p.Flow, p.Bits(), now)
	if err != nil {
		return err
	}
	fq := int64(f / w.gran)
	if w.q.Len() == 0 && fq > w.baseQ {
		w.baseQ = fq
	}
	tag := fq - w.baseQ
	if tag < 0 {
		tag = 0
	}
	if tag >= int64(w.range_) {
		return fmt.Errorf("hwwfq: tag window %d exceeds range %d", tag, w.range_)
	}
	handle := w.next
	w.next++
	if err := w.q.Insert(int(tag), handle); err != nil {
		return err
	}
	w.pending[handle] = p
	return nil
}

func (w *legacyHWWFQ) Dequeue(_ float64) (packet.Packet, error) {
	e, err := w.q.ExtractMin()
	if err != nil {
		return packet.Packet{}, fmt.Errorf("hwwfq: %w", err)
	}
	p, ok := w.pending[e.Payload]
	if !ok {
		return packet.Packet{}, fmt.Errorf("hwwfq: unknown handle %d", e.Payload)
	}
	delete(w.pending, e.Payload)
	return p, nil
}

// seededArrivals mixes bursts, idle gaps, and jittered packet sizes so
// the comparison exercises rebasing, virtual-time jumps, and tie-break
// paths, deterministically per seed.
func seededArrivals(seed int64, flows, count int) []packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	arrivals := make([]packet.Packet, count)
	t := 0.0
	for i := range arrivals {
		if rng.Float64() < 0.05 {
			t += rng.Float64() * 0.2 // idle gap
		} else {
			t += rng.Float64() * 1e-3
		}
		arrivals[i] = packet.Packet{
			ID:      i,
			Flow:    rng.Intn(flows),
			Size:    64 + rng.Intn(1437),
			Arrival: t,
		}
	}
	return arrivals
}

func identicalSchedules(t *testing.T, name string, got, want []Departure) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d departures, legacy %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Packet.ID != w.Packet.ID || g.Start != w.Start || g.Finish != w.Finish {
			t.Fatalf("%s: departure %d = packet %d [%v,%v], legacy packet %d [%v,%v]",
				name, i, g.Packet.ID, g.Start, g.Finish, w.Packet.ID, w.Start, w.Finish)
		}
	}
}

// TestRankSeamByteIdentical drives each refactored discipline and its
// preserved legacy twin over the same seeded workloads and requires
// bit-equal schedules.
func TestRankSeamByteIdentical(t *testing.T) {
	weights := []float64{0.5, 0.25, 0.125, 0.125}
	const capacity = 1e6
	for _, seed := range []int64{1, 7, 42} {
		arrivals := seededArrivals(seed, len(weights), 400)

		wfqD, err := NewWFQ(weights, capacity)
		if err != nil {
			t.Fatalf("NewWFQ: %v", err)
		}
		runPair(t, fmt.Sprintf("WFQ/seed=%d", seed), arrivals, capacity, wfqD, newLegacyWFQ(t, weights, capacity))

		scfq, err := NewSCFQ(weights, capacity)
		if err != nil {
			t.Fatalf("NewSCFQ: %v", err)
		}
		runPair(t, fmt.Sprintf("SCFQ/seed=%d", seed), arrivals, capacity, scfq, newLegacySCFQ(t, weights, capacity))

		vc, err := NewVirtualClock(weights, capacity)
		if err != nil {
			t.Fatalf("NewVirtualClock: %v", err)
		}
		runPair(t, fmt.Sprintf("VirtualClock/seed=%d", seed), arrivals, capacity, vc, newLegacyVirtualClock(t, weights, capacity))

		wf2qp, err := NewWF2QPlus(weights, capacity)
		if err != nil {
			t.Fatalf("NewWF2QPlus: %v", err)
		}
		runPair(t, fmt.Sprintf("WF2Q+/seed=%d", seed), arrivals, capacity, wf2qp, newLegacyWF2QPlus(t, weights, capacity))

		hw, err := NewHWWFQ(weights, capacity, 1e-4, 1<<20, pqueue.NewBinaryHeap())
		if err != nil {
			t.Fatalf("NewHWWFQ: %v", err)
		}
		runPair(t, fmt.Sprintf("HWWFQ/seed=%d", seed), arrivals, capacity, hw,
			newLegacyHWWFQ(t, weights, capacity, 1e-4, 1<<20, pqueue.NewBinaryHeap()))
	}
}

func runPair(t *testing.T, name string, arrivals []packet.Packet, capacity float64, current, legacy Discipline) {
	t.Helper()
	got, err := Run(arrivals, current, capacity)
	if err != nil {
		t.Fatalf("%s: Run(current): %v", name, err)
	}
	want, err := Run(arrivals, legacy, capacity)
	if err != nil {
		t.Fatalf("%s: Run(legacy): %v", name, err)
	}
	identicalSchedules(t, name, got, want)
}
