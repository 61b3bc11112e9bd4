package schedulers

import (
	"math"
	"testing"

	"wfqsort/internal/gps"
	"wfqsort/internal/packet"
	"wfqsort/internal/traffic"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func backloggedArrivals(t *testing.T, flows, perFlow, size int) []packet.Packet {
	t.Helper()
	var srcs []traffic.Source
	for f := 0; f < flows; f++ {
		s, err := traffic.NewCBR(f, 1e9, size, perFlow, 0) // effectively all at t≈0
		if err != nil {
			t.Fatalf("NewCBR: %v", err)
		}
		srcs = append(srcs, s)
	}
	pkts, err := traffic.Merge(srcs...)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return pkts
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, NewFIFO(), 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Run(nil, nil, 1e6); err == nil {
		t.Error("nil discipline accepted")
	}
}

func TestFIFOOrder(t *testing.T) {
	pkts := []packet.Packet{
		{ID: 0, Flow: 0, Size: 100, Arrival: 0},
		{ID: 1, Flow: 1, Size: 50, Arrival: 0.001},
		{ID: 2, Flow: 0, Size: 200, Arrival: 0.002},
	}
	deps, err := Run(pkts, NewFIFO(), 1e6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range deps {
		if deps[i].Packet.ID != i {
			t.Fatalf("FIFO order broken: position %d has ID %d", i, deps[i].Packet.ID)
		}
	}
}

func TestRunWorkConserving(t *testing.T) {
	pkts := backloggedArrivals(t, 3, 20, 125)
	totalBits := 0.0
	for _, p := range pkts {
		totalBits += p.Bits()
	}
	for _, d := range []Discipline{NewFIFO(), mustWRR(t, []int{1, 1, 1}), mustDRR(t, []int{500, 500, 500}), mustWFQ(t, []float64{1, 1, 1}, 1e6)} {
		deps, err := Run(pkts, d, 1e6)
		if err != nil {
			t.Fatalf("%s: Run: %v", d.Name(), err)
		}
		if len(deps) != len(pkts) {
			t.Fatalf("%s: served %d of %d", d.Name(), len(deps), len(pkts))
		}
		last := deps[len(deps)-1].Finish
		// All backlogged from ~t=0: makespan ≈ totalBits/C.
		if !approx(last, totalBits/1e6, 0.001) {
			t.Fatalf("%s: makespan %v, want ≈%v", d.Name(), last, totalBits/1e6)
		}
		// Non-preemptive single server: service intervals must not
		// overlap.
		for i := 1; i < len(deps); i++ {
			if deps[i].Start < deps[i-1].Finish-1e-9 {
				t.Fatalf("%s: overlapping service at %d", d.Name(), i)
			}
		}
	}
}

func mustWRR(t *testing.T, quota []int) *WRR {
	t.Helper()
	w, err := NewWRR(quota)
	if err != nil {
		t.Fatalf("NewWRR: %v", err)
	}
	return w
}

func mustDRR(t *testing.T, quanta []int) *DRR {
	t.Helper()
	d, err := NewDRR(quanta)
	if err != nil {
		t.Fatalf("NewDRR: %v", err)
	}
	return d
}

func mustWFQ(t *testing.T, weights []float64, cap float64) *PIFO {
	t.Helper()
	w, err := NewWFQ(weights, cap)
	if err != nil {
		t.Fatalf("NewWFQ: %v", err)
	}
	return w
}

func TestWRRQuotaShares(t *testing.T) {
	// Equal packet sizes, quotas 3:1 → flow 0 gets 3/4 of the packets in
	// any window.
	pkts := backloggedArrivals(t, 2, 400, 125)
	deps, err := Run(pkts, mustWRR(t, []int{3, 1}), 1e6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	count := [2]int{}
	for _, d := range deps[:200] {
		count[d.Packet.Flow]++
	}
	ratio := float64(count[0]) / float64(count[1])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("WRR service ratio %v, want ≈3", ratio)
	}
}

// TestWRRVariablePacketSizeUnfairness reproduces the paper's criticism:
// with unequal packet sizes and equal quotas, WRR gives the large-packet
// flow an outsized bandwidth share.
func TestWRRVariablePacketSizeUnfairness(t *testing.T) {
	big, err := traffic.NewCBR(0, 1e9, 1500, 200, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	small, err := traffic.NewCBR(1, 1e9, 64, 200, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	pkts, err := traffic.Merge(big, small)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	deps, err := Run(pkts, mustWRR(t, []int{1, 1}), 1e6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bits := [2]float64{}
	for _, d := range deps[:200] {
		bits[d.Packet.Flow] += d.Packet.Bits()
	}
	// Equal quotas but 1500B vs 64B: flow 0 gets ≈23× the bandwidth.
	if bits[0] < 10*bits[1] {
		t.Fatalf("WRR bit shares %v — expected gross unfairness with variable sizes", bits)
	}
	// DRR with equal quanta fixes it: byte-based accounting.
	deps, err = Run(pkts, mustDRR(t, []int{1500, 1500}), 1e6)
	if err != nil {
		t.Fatalf("Run DRR: %v", err)
	}
	bits = [2]float64{}
	for _, d := range deps[:200] {
		bits[d.Packet.Flow] += d.Packet.Bits()
	}
	ratio := bits[0] / bits[1]
	if ratio > 1.6 || ratio < 0.6 {
		t.Fatalf("DRR bit ratio %v, want ≈1 (byte fairness)", ratio)
	}
}

func TestDRRWeightedShares(t *testing.T) {
	pkts := backloggedArrivals(t, 2, 600, 125)
	deps, err := Run(pkts, mustDRR(t, []int{375, 125}), 1e6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bits := [2]float64{}
	for _, d := range deps[:400] {
		bits[d.Packet.Flow] += d.Packet.Bits()
	}
	ratio := bits[0] / bits[1]
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("DRR 3:1 quanta ratio %v, want ≈3", ratio)
	}
}

func TestMDRRPrioritizesLLQ(t *testing.T) {
	// Flow 0 (VoIP/LLQ) packets arriving amid heavy flow-1/2 backlog are
	// always served next.
	voip, err := traffic.NewCBR(0, 64e3, 80, 20, 0.0005)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	bulk1, err := traffic.NewCBR(1, 1e9, 1500, 100, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	bulk2, err := traffic.NewCBR(2, 1e9, 1500, 100, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	pkts, err := traffic.Merge(voip, bulk1, bulk2)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	m, err := NewMDRR([]int{1, 1500, 1500})
	if err != nil {
		t.Fatalf("NewMDRR: %v", err)
	}
	deps, err := Run(pkts, m, 10e6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	maxVoipDelay := 0.0
	for _, d := range deps {
		if d.Packet.Flow == 0 {
			if delay := d.Finish - d.Packet.Arrival; delay > maxVoipDelay {
				maxVoipDelay = delay
			}
		}
	}
	// Worst case ≈ one 1500 B residual + own serialization ≈ 1.3 ms.
	if maxVoipDelay > 0.002 {
		t.Fatalf("MDRR VoIP max delay %v, want < 2 ms (strict priority)", maxVoipDelay)
	}
}

func TestMDRRValidation(t *testing.T) {
	if _, err := NewMDRR([]int{100}); err == nil {
		t.Error("single flow accepted")
	}
}

// TestWFQTracksGPSWithinOnePacket verifies the paper's central QoS claim:
// packet WFQ finishes every packet within one maximum-size packet
// transmission time of its GPS finish.
func TestWFQTracksGPSWithinOnePacket(t *testing.T) {
	const capacity = 1e6
	weights := []float64{4, 2, 1, 1}
	var srcs []traffic.Source
	sizes := []int{1500, 576, 200, 1500}
	for f := 0; f < 4; f++ {
		s, err := traffic.NewPoisson(f, 120, traffic.UniformSize{Min: 64, Max: sizes[f]}, 150, int64(f+1))
		if err != nil {
			t.Fatalf("NewPoisson: %v", err)
		}
		srcs = append(srcs, s)
	}
	pkts, err := traffic.Merge(srcs...)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	ref, err := gps.Simulate(pkts, weights, capacity)
	if err != nil {
		t.Fatalf("gps.Simulate: %v", err)
	}
	deps, err := Run(pkts, mustWFQ(t, weights, capacity), capacity)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bound := 1500 * 8 / capacity // Lmax/C
	worst := 0.0
	for _, d := range deps {
		lag := d.Finish - ref.Finish[d.Packet.ID]
		if lag > worst {
			worst = lag
		}
	}
	if worst > bound+1e-9 {
		t.Fatalf("WFQ max GPS lag %v exceeds Lmax/C bound %v", worst, bound)
	}
}

// TestRoundRobinCannotBoundDelay: under the same workload, DRR's worst
// GPS lag grows with the frame (sum of quanta), far beyond WFQ's bound —
// the paper's argument for fair queueing over the round-robin family.
func TestRoundRobinCannotBoundDelay(t *testing.T) {
	const capacity = 1e6
	flows := 16
	weights := make([]float64, flows)
	quanta := make([]int, flows)
	var srcs []traffic.Source
	for f := 0; f < flows; f++ {
		weights[f] = 1
		quanta[f] = 1500
		s, err := traffic.NewCBR(f, 1e9, 1500, 40, 0)
		if err != nil {
			t.Fatalf("NewCBR: %v", err)
		}
		srcs = append(srcs, s)
	}
	// One small-packet latency-sensitive flow.
	voip, err := traffic.NewCBR(0, 1e9, 64, 40, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	srcs[0] = voip
	pkts, err := traffic.Merge(srcs...)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	ref, err := gps.Simulate(pkts, weights, capacity)
	if err != nil {
		t.Fatalf("gps.Simulate: %v", err)
	}
	worstOf := func(d Discipline) float64 {
		deps, err := Run(pkts, d, capacity)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		worst := 0.0
		for _, dep := range deps {
			if dep.Packet.Flow != 0 {
				continue
			}
			if lag := dep.Finish - ref.Finish[dep.Packet.ID]; lag > worst {
				worst = lag
			}
		}
		return worst
	}
	wfqWorst := worstOf(mustWFQ(t, weights, capacity))
	drrWorst := worstOf(mustDRR(t, quanta))
	bound := 1500 * 8 / capacity
	if wfqWorst > bound+1e-9 {
		t.Fatalf("WFQ flow-0 lag %v exceeds bound %v", wfqWorst, bound)
	}
	if drrWorst < 3*bound {
		t.Fatalf("DRR flow-0 lag %v not ≫ WFQ bound %v — expected unbounded frame delay", drrWorst, bound)
	}
}

// TestWF2QEligibility: WF²Q's eligibility test (serve only packets whose
// GPS service has begun) keeps the output stream smooth — a high-weight
// flow that dumps a burst cannot monopolize consecutive slots the way it
// can under WFQ — while still tracking GPS within one packet time.
func TestWF2QEligibility(t *testing.T) {
	const capacity = 1e6
	weights := []float64{10, 1, 1}
	var pkts []packet.Packet
	id := 0
	// Heavy flow dumps 30 packets at t=0; two light flows keep steady
	// backlogs.
	for i := 0; i < 30; i++ {
		pkts = append(pkts, packet.Packet{ID: id, Flow: 0, Size: 500, Arrival: 0})
		id++
	}
	for f := 1; f <= 2; f++ {
		for i := 0; i < 6; i++ {
			pkts = append(pkts, packet.Packet{ID: id, Flow: f, Size: 500, Arrival: 0})
			id++
		}
	}
	ref, err := gps.Simulate(pkts, weights, capacity)
	if err != nil {
		t.Fatalf("gps.Simulate: %v", err)
	}
	maxRun := func(d Discipline) (int, float64) {
		deps, err := Run(pkts, d, capacity)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		run, best := 0, 0
		prev := -1
		for _, dep := range deps {
			if dep.Packet.Flow == prev {
				run++
			} else {
				run, prev = 1, dep.Packet.Flow
			}
			if run > best {
				best = run
			}
		}
		lag := 0.0
		for _, dep := range deps {
			if l := dep.Finish - ref.Finish[dep.Packet.ID]; l > lag {
				lag = l
			}
		}
		return best, lag
	}
	w2, err := NewWF2Q(weights, capacity)
	if err != nil {
		t.Fatalf("NewWF2Q: %v", err)
	}
	wf, err := NewWFQ(weights, capacity)
	if err != nil {
		t.Fatalf("NewWFQ: %v", err)
	}
	wf2Run, wf2Lag := maxRun(w2)
	wfqRun, _ := maxRun(wf)
	bound := 500 * 8 / capacity
	if wf2Lag > bound+1e-9 {
		t.Fatalf("WF2Q max GPS lag %v exceeds Lmax/C %v", wf2Lag, bound)
	}
	if wf2Run > wfqRun {
		t.Fatalf("WF2Q burst run %d exceeds WFQ's %d — eligibility should smooth the output", wf2Run, wfqRun)
	}
}

func TestDisciplineValidation(t *testing.T) {
	if _, err := NewWRR(nil); err == nil {
		t.Error("WRR with no flows accepted")
	}
	if _, err := NewWRR([]int{0}); err == nil {
		t.Error("WRR zero quota accepted")
	}
	if _, err := NewDRR(nil); err == nil {
		t.Error("DRR with no flows accepted")
	}
	if _, err := NewDRR([]int{-1}); err == nil {
		t.Error("DRR negative quantum accepted")
	}
	if _, err := NewWFQ(nil, 1e6); err == nil {
		t.Error("WFQ with no flows accepted")
	}
	if _, err := NewWF2Q([]float64{1}, 0); err == nil {
		t.Error("WF2Q zero capacity accepted")
	}
	w := mustWRR(t, []int{1})
	if err := w.Enqueue(packet.Packet{Flow: 5}, 0); err == nil {
		t.Error("WRR out-of-range flow accepted")
	}
	d := mustDRR(t, []int{100})
	if err := d.Enqueue(packet.Packet{Flow: -1}, 0); err == nil {
		t.Error("DRR out-of-range flow accepted")
	}
}

func TestDequeueEmptyErrors(t *testing.T) {
	if _, err := NewFIFO().Dequeue(0); err == nil {
		t.Error("FIFO empty dequeue accepted")
	}
	if _, err := mustWRR(t, []int{1}).Dequeue(0); err == nil {
		t.Error("WRR empty dequeue accepted")
	}
	if _, err := mustDRR(t, []int{1}).Dequeue(0); err == nil {
		t.Error("DRR empty dequeue accepted")
	}
	if _, err := mustWFQ(t, []float64{1}, 1e6).Dequeue(0); err == nil {
		t.Error("WFQ empty dequeue accepted")
	}
	m, _ := NewMDRR([]int{1, 1})
	if _, err := m.Dequeue(0); err == nil {
		t.Error("MDRR empty dequeue accepted")
	}
	w2, _ := NewWF2Q([]float64{1}, 1e6)
	if _, err := w2.Dequeue(0); err == nil {
		t.Error("WF2Q empty dequeue accepted")
	}
}
