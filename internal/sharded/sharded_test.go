package sharded

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wfqsort/internal/core"
	"wfqsort/internal/fault"
	"wfqsort/internal/membus"
	"wfqsort/internal/taglist"
)

func mustNew(t *testing.T, cfg Config) *ShardedSorter {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	for _, lanes := range []int{-1, 3, 5, 6, 128} {
		if _, err := New(Config{Lanes: lanes}); err == nil {
			t.Errorf("lanes=%d: want error", lanes)
		}
	}
	if _, err := New(Config{Lanes: 2, LaneFabrics: []*membus.Fabric{membus.New(nil)}}); err == nil {
		t.Error("mismatched lane fabrics: want error")
	}
	if _, err := New(Config{Partition: Partition(99)}); err == nil {
		t.Error("unknown partition: want error")
	}
	s := mustNew(t, Config{})
	if s.Lanes() != 4 || s.Partition() != PartitionInterleaved {
		t.Errorf("defaults: lanes=%d partition=%v", s.Lanes(), s.Partition())
	}
}

func TestLanePartitioning(t *testing.T) {
	inter := mustNew(t, Config{Lanes: 4})
	for tag := 0; tag < inter.TagRange(); tag += 97 {
		if got := inter.LaneFor(tag); got != tag%4 {
			t.Fatalf("interleaved LaneFor(%d) = %d, want %d", tag, got, tag%4)
		}
	}
	blocked := mustNew(t, Config{Lanes: 4, Partition: PartitionBlocked})
	block := blocked.TagRange() / 4
	for tag := 0; tag < blocked.TagRange(); tag += 97 {
		if got := blocked.LaneFor(tag); got != tag/block {
			t.Fatalf("blocked LaneFor(%d) = %d, want %d", tag, got, tag/block)
		}
	}
}

// TestDifferentialVsSingleSorter is the core exactness claim: for every
// lane count, the sharded sorter serves exactly the sequence a single
// core.Sorter serves, including FCFS payload order among duplicate tags.
func TestDifferentialVsSingleSorter(t *testing.T) {
	for _, lanes := range []int{1, 2, 4, 8} {
		for _, part := range []Partition{PartitionInterleaved, PartitionBlocked} {
			t.Run(part.String()+"/"+string(rune('0'+lanes)), func(t *testing.T) {
				ref, err := core.New(core.Config{Capacity: 8192})
				if err != nil {
					t.Fatal(err)
				}
				s := mustNew(t, Config{Lanes: lanes, LaneCapacity: 2048, Partition: part})
				rng := rand.New(rand.NewSource(int64(lanes)))
				for step := 0; step < 3000; step++ {
					if s.Len() == 0 || rng.Intn(2) == 0 {
						tag := rng.Intn(256) * 16 // heavy duplicates
						if err := ref.Insert(tag, step); err != nil {
							t.Fatal(err)
						}
						if err := s.Insert(tag, step); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					} else {
						want, err := ref.ExtractMin()
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.ExtractMin()
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if got.Tag != want.Tag || got.Payload != want.Payload {
							t.Fatalf("step %d: served (%d,%d), single sorter (%d,%d)",
								step, got.Tag, got.Payload, want.Tag, want.Payload)
						}
					}
					if s.Len() != ref.Len() {
						t.Fatalf("step %d: len %d vs %d", step, s.Len(), ref.Len())
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestInsertBatchMatchesSequential: a concurrent batch must drain in the
// exact order the same requests inserted one at a time would.
func TestInsertBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reqs := make([]Request, 2000)
	for i := range reqs {
		reqs[i] = Request{Tag: rng.Intn(4096), Payload: i}
	}
	seq := mustNew(t, Config{Lanes: 4, LaneCapacity: 1024})
	for _, r := range reqs {
		if err := seq.Insert(r.Tag, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	bat := mustNew(t, Config{Lanes: 4, LaneCapacity: 1024})
	cycles, err := bat.InsertBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Error("batch reported zero max-lane cycles")
	}
	a, err := seq.Drain()
	if err != nil {
		t.Fatal(err)
	}
	b, err := bat.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("drained %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || a[i].Payload != b[i].Payload {
			t.Fatalf("position %d: sequential (%d,%d), batch (%d,%d)",
				i, a[i].Tag, a[i].Payload, b[i].Tag, b[i].Payload)
		}
	}
}

// TestInsertBatchConcurrencyStress interleaves large batches with
// extraction bursts; under -race this exercises the goroutine fan-out.
func TestInsertBatchConcurrencyStress(t *testing.T) {
	s := mustNew(t, Config{Lanes: 8, LaneCapacity: 2048})
	rng := rand.New(rand.NewSource(5))
	payload := 0
	for round := 0; round < 20; round++ {
		batch := make([]Request, 512)
		for i := range batch {
			batch[i] = Request{Tag: rng.Intn(4096), Payload: payload}
			payload++
		}
		if _, err := s.InsertBatch(batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		prev := -1
		for i := 0; i < 256; i++ {
			e, err := s.ExtractMin()
			if err != nil {
				t.Fatalf("round %d extract %d: %v", round, i, err)
			}
			if e.Tag < prev {
				t.Fatalf("round %d: served %d after %d", round, e.Tag, prev)
			}
			prev = e.Tag
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestInsertBatchValidation(t *testing.T) {
	s := mustNew(t, Config{Lanes: 2, LaneCapacity: 4})
	if _, err := s.InsertBatch([]Request{{Tag: -1}}); err == nil {
		t.Error("negative tag: want error")
	}
	if _, err := s.InsertBatch([]Request{{Tag: s.TagRange()}}); err == nil {
		t.Error("out-of-range tag: want error")
	}
	// Five even tags all map to lane 0, which has only 4 links.
	over := []Request{{Tag: 0}, {Tag: 2}, {Tag: 4}, {Tag: 6}, {Tag: 8}}
	if _, err := s.InsertBatch(over); !errors.Is(err, taglist.ErrFull) {
		t.Errorf("overfull lane: got %v, want ErrFull", err)
	}
	if s.Len() != 0 {
		t.Errorf("rejected batch left %d entries", s.Len())
	}
	if cycles, err := s.InsertBatch(nil); err != nil || cycles != 0 {
		t.Errorf("empty batch: cycles=%d err=%v", cycles, err)
	}
}

func TestMaxLaneCycleAccounting(t *testing.T) {
	s := mustNew(t, Config{Lanes: 4, LaneCapacity: 512})
	// A perfectly balanced batch: 4k consecutive tags, 1k per lane.
	batch := make([]Request, 1024)
	for i := range batch {
		batch[i] = Request{Tag: i % 4096, Payload: i}
	}
	if _, err := s.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := s.StatsSnapshot()
	if st.MaxLaneCycles == 0 || st.SumLaneCycles == 0 {
		t.Fatalf("cycle accounting empty: %+v", st)
	}
	// Balanced work across 4 lanes: the parallel model must show a
	// speedup well above half the lane count.
	if sp := st.ModelSpeedup(); sp < 2 {
		t.Errorf("model speedup %.2f with 4 balanced lanes, want ≥ 2", sp)
	}
	for i := 1; i < 4; i++ {
		if st.LaneLens[i] != st.LaneLens[0] {
			t.Errorf("balanced batch left lanes %v", st.LaneLens)
		}
	}
}

func TestSelectTreeFixedDepth(t *testing.T) {
	for lanes, want := range map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 16: 4} {
		s := mustNew(t, Config{Lanes: lanes, LaneCapacity: 64})
		if d := s.StatsSnapshot().SelectDepth; d != want {
			t.Errorf("lanes=%d: select depth %d, want %d", lanes, d, want)
		}
	}
	// Compare count per extract is bounded by the tree depth (the
	// fixed-time claim): depth compares to refresh the departed lane.
	s := mustNew(t, Config{Lanes: 8, LaneCapacity: 64})
	for i := 0; i < 64; i++ {
		if err := s.Insert(i*64, i); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	for i := 0; i < 64; i++ {
		if _, err := s.ExtractMin(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StatsSnapshot()
	if st.SelectCompares != 64*uint64(st.SelectDepth) {
		t.Errorf("64 extracts cost %d compares, want %d", st.SelectCompares, 64*st.SelectDepth)
	}
}

func TestInsertExtractMinCrossLane(t *testing.T) {
	s := mustNew(t, Config{Lanes: 4, LaneCapacity: 64})
	// Head in lane 1 (tag 5), incoming tag in lane 2 (tag 6).
	if err := s.Insert(5, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(9, 101); err != nil {
		t.Fatal(err)
	}
	e, err := s.InsertExtractMin(6, 102)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tag != 5 || e.Payload != 100 {
		t.Fatalf("served (%d,%d), want (5,100)", e.Tag, e.Payload)
	}
	if s.Len() != 2 {
		t.Fatalf("len %d, want 2", s.Len())
	}
	// Same-lane combined window: head tag 6 (lane 2), incoming 10 (lane 2).
	e, err = s.InsertExtractMin(10, 103)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tag != 6 {
		t.Fatalf("served %d, want 6", e.Tag)
	}
	if got := s.StatsSnapshot().Combined; got != 2 {
		t.Fatalf("combined windows %d, want 2", got)
	}
	// The departing head is committed even when the incoming tag
	// undercuts it (paper's window semantics, preserved across lanes).
	e, err = s.InsertExtractMin(1, 104)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tag != 9 {
		t.Fatalf("served %d, want committed head 9", e.Tag)
	}
	if head, ok := s.PeekMin(); !ok || head.Tag != 1 {
		t.Fatalf("head after combined = %+v, want tag 1", head)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndSnapshot(t *testing.T) {
	s := mustNew(t, Config{Lanes: 2, LaneCapacity: 16})
	if _, err := s.ExtractMin(); !errors.Is(err, taglist.ErrEmpty) {
		t.Errorf("empty extract: %v", err)
	}
	if _, err := s.InsertExtractMin(3, 0); !errors.Is(err, taglist.ErrEmpty) {
		t.Errorf("empty combined: %v", err)
	}
	if _, ok := s.PeekMin(); ok {
		t.Error("empty peek reported a head")
	}
	for i, tag := range []int{7, 2, 9, 2, 4} {
		if err := s.Insert(tag, i); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantTags := []int{2, 2, 4, 7, 9}
	wantPay := []int{1, 3, 4, 0, 2} // FCFS within tag 2
	for i, e := range snap {
		if e.Tag != wantTags[i] || e.Payload != wantPay[i] {
			t.Fatalf("snapshot[%d] = (%d,%d), want (%d,%d)", i, e.Tag, e.Payload, wantTags[i], wantPay[i])
		}
	}
	drained, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range drained {
		if e.Tag != wantTags[i] || e.Payload != wantPay[i] {
			t.Fatalf("drain[%d] = (%d,%d), want (%d,%d)", i, e.Tag, e.Payload, wantTags[i], wantPay[i])
		}
	}
}

// TestFaultInjectedLane reuses an internal/fault campaign against one
// lane's clock domain: the corruption must surface as ErrCorrupt from
// the sharded path, and per-lane Rebuild plus ResyncHeads must restore
// service (the tag store is the authoritative copy).
func TestFaultInjectedLane(t *testing.T) {
	const lanes = 4
	fabrics := make([]*membus.Fabric, lanes)
	for i := range fabrics {
		fabrics[i] = membus.New(nil)
	}
	// Flip the translation-table valid bit of a known-live tag in lane 2
	// only (the word is addrBits+1 = 9 bits wide at lane capacity 256, so
	// bit 8 is the valid flag — higher bits fall outside the stored
	// word). The odd access count lands the flip on a lookup read rather
	// than a newest-link writeback, which would immediately heal it.
	inj := fault.NewInjector(fault.Campaign{
		Seed: 3,
		Faults: []fault.Fault{
			{Mem: "translation-table", Kind: fault.BitFlip, Addr: 2, Mask: 1 << 8, At: fault.Trigger{Access: 41}},
		},
	}, fabrics[2].Clock())
	inj.Attach(fabrics[2])
	s, err := New(Config{Lanes: lanes, LaneCapacity: 256, LaneFabrics: fabrics})
	if err != nil {
		t.Fatal(err)
	}
	// Keep tag 2 (lane 2) live so the scheduled flip hits a valid entry;
	// extraction only starts once the backlog builds, well after it fires.
	if err := s.Insert(2, 4000); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var sawCorrupt bool
	for step := 0; step < 4000 && !sawCorrupt; step++ {
		tag := rng.Intn(4096)
		if err := s.Insert(tag, step); err != nil {
			if errors.Is(err, core.ErrCorrupt) {
				sawCorrupt = true
				break
			}
			t.Fatalf("step %d: unexpected insert error: %v", step, err)
		}
		if s.Len() > 128 {
			if _, err := s.ExtractMin(); err != nil {
				if errors.Is(err, core.ErrCorrupt) {
					sawCorrupt = true
					break
				}
				t.Fatalf("step %d: unexpected extract error: %v", step, err)
			}
		}
	}
	if len(inj.Events()) == 0 {
		t.Fatal("campaign never fired")
	}
	if !sawCorrupt {
		// Some corruptions are latent until audited; force detection.
		if err := s.Lane(2).CheckInvariants(); err == nil {
			t.Skip("fault landed on a dead translation entry; nothing to detect")
		}
	}
	// Recover lane 2 from its authoritative tag store and resume.
	if err := s.Lane(2).Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	s.ResyncHeads()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("post-rebuild invariants: %v", err)
	}
	prev := -1
	for s.Len() > 0 {
		e, err := s.ExtractMin()
		if err != nil {
			t.Fatalf("post-rebuild extract: %v", err)
		}
		if e.Tag < prev {
			t.Fatalf("post-rebuild order violated: %d after %d", e.Tag, prev)
		}
		prev = e.Tag
	}
}

func TestStatsAggregationAndReset(t *testing.T) {
	s := mustNew(t, Config{Lanes: 4, LaneCapacity: 256})
	batch := make([]Request, 400)
	for i := range batch {
		batch[i] = Request{Tag: (i * 7) % 4096, Payload: i}
	}
	if _, err := s.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.ExtractMin(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StatsSnapshot()
	if st.Inserts != 400 || st.Extracts != 100 || st.Batches != 1 {
		t.Fatalf("stats %+v", st)
	}
	var lens, ins uint64
	for i := range st.LaneLens {
		lens += uint64(st.LaneLens[i])
		ins += st.LaneInserts[i]
	}
	if lens != 300 || ins != 400 {
		t.Fatalf("lane breakdown: lens %d inserts %d", lens, ins)
	}
	var perLaneIns uint64
	for _, cs := range st.PerLane {
		perLaneIns += cs.Inserts
	}
	if perLaneIns != 400 {
		t.Fatalf("per-lane core stats sum %d inserts, want 400", perLaneIns)
	}
	busy := st.MaxLaneCycles
	s.ResetStats()
	st = s.StatsSnapshot()
	if st.Inserts != 0 || st.Extracts != 0 || st.Batches != 0 || st.SelectCompares != 0 {
		t.Fatalf("post-reset stats %+v", st)
	}
	if st.MaxLaneCycles != 0 {
		t.Errorf("cycle gauges must rebase to the reset point, got %d", st.MaxLaneCycles)
	}
	for i, fabst := range st.PerLane {
		if fabst.TreeNodeReads != 0 {
			t.Errorf("lane %d fabric counters survived reset: %+v", i, fabst)
		}
	}
	// The lane clocks themselves keep running: fresh traffic accumulates
	// cycles from the reset point without rewinding the clock domain.
	if err := s.Insert(3, 1); err != nil {
		t.Fatal(err)
	}
	st = s.StatsSnapshot()
	if st.MaxLaneCycles == 0 || st.MaxLaneCycles >= busy {
		t.Errorf("post-reset interval cycles = %d, want in (0, %d)", st.MaxLaneCycles, busy)
	}
}

// TestFaultInjectedSameTagCombined drives the simultaneous same-tag
// insert+extract window on one lane while an internal/fault campaign
// flips translation-table bits in that lane's clock domain. The FIFO
// payload stream must stay strict until the corruption surfaces as
// ErrCorrupt, and per-lane Rebuild from the authoritative tag store
// plus ResyncHeads must restore the exact FCFS remainder.
func TestFaultInjectedSameTagCombined(t *testing.T) {
	const (
		lanes = 4
		tag   = 6 // interleaved: tag&3 == 2 → lane 2, the faulted domain
	)
	fabrics := make([]*membus.Fabric, lanes)
	for i := range fabrics {
		fabrics[i] = membus.New(nil)
	}
	inj := fault.NewInjector(fault.Campaign{
		Seed: 11,
		Faults: []fault.Fault{
			// Target the live tag's own translation entry, flipping its
			// valid bit (the word is addrBits+1 = 7 bits at lane
			// capacity 64, so bit 6 is the valid flag). The odd access
			// count lands the flip on a lookup read rather than the
			// newest-link writeback, which would immediately heal it.
			{Mem: "translation-table", Kind: fault.BitFlip, Addr: tag, Mask: 1 << 6, At: fault.Trigger{Access: 61}},
		},
	}, fabrics[2].Clock())
	inj.Attach(fabrics[2])
	s := mustNew(t, Config{Lanes: lanes, LaneCapacity: 64, LaneFabrics: fabrics})

	const depth = 8
	for p := 0; p < depth; p++ {
		if err := s.Insert(tag, p); err != nil {
			t.Fatalf("prefill %d: %v", p, err)
		}
	}
	next, served := depth, 0
	var sawCorrupt bool
	for step := 0; step < 2000; step++ {
		e, err := s.InsertExtractMin(tag, next)
		if err != nil {
			if errors.Is(err, core.ErrCorrupt) {
				sawCorrupt = true
				break
			}
			t.Fatalf("step %d: InsertExtractMin: %v", step, err)
		}
		// The insert may or may not have landed depending on where the
		// window failed; only trust the serves observed before corruption.
		next++
		if e.Tag != tag || e.Payload != served {
			t.Fatalf("step %d: served (%d,%d), want (%d,%d) — FIFO broken before any ErrCorrupt",
				step, e.Tag, e.Payload, tag, served)
		}
		served++
	}
	if len(inj.Events()) == 0 {
		t.Fatal("campaign never fired")
	}
	if !sawCorrupt {
		if err := s.Lane(2).CheckInvariants(); err == nil {
			t.Skip("fault landed on a dead translation entry; nothing to detect")
		}
	}
	if err := s.Lane(2).Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	s.ResyncHeads()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("post-rebuild invariants: %v", err)
	}
	// The tag store is authoritative: the remainder must still be the
	// uninterrupted FIFO suffix.
	for s.Len() > 0 {
		e, err := s.ExtractMin()
		if err != nil {
			t.Fatalf("post-rebuild extract: %v", err)
		}
		if e.Tag != tag || e.Payload != served {
			t.Fatalf("post-rebuild served (%d,%d), want (%d,%d)", e.Tag, e.Payload, tag, served)
		}
		served++
	}
}

// TestResyncHeadPerLane pins the per-lane head resync: goroutines
// mutate disjoint lanes out-of-band through Lane(i) — the parallel
// engine's ownership shape — and afterwards one serialized ResyncHead
// per touched lane restores the select tree and occupancy without a
// full ResyncHeads sweep.
func TestResyncHeadPerLane(t *testing.T) {
	s := mustNew(t, Config{Lanes: 4, LaneCapacity: 64})
	for tag := 0; tag < 32; tag++ {
		if err := s.Insert(tag, tag); err != nil {
			t.Fatalf("Insert(%d): %v", tag, err)
		}
	}
	// Each goroutine owns exactly one lane (parameter-passed, the
	// laneconfine shape) and mutates it directly: extract its head and
	// insert a replacement tag deep in that lane's slice.
	var wg sync.WaitGroup
	for i := 0; i < s.Lanes(); i++ {
		wg.Add(1)
		go func(i int, ln *core.Sorter) {
			defer wg.Done()
			if _, err := ln.ExtractMin(); err != nil {
				t.Errorf("lane %d: ExtractMin: %v", i, err)
			}
			if err := ln.Insert(1000+i, 99); err != nil { // 1000 ≡ 0 mod 4 keeps lane ownership
				t.Errorf("lane %d: Insert: %v", i, err)
			}
		}(i, s.Lane(i))
	}
	wg.Wait()
	// The tree and count are now stale; per-lane resync (serialized, one
	// call per mutated lane) must restore both.
	for i := 0; i < s.Lanes(); i++ {
		s.ResyncHead(i)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after per-lane resync: %v", err)
	}
	if s.Len() != 32 {
		t.Fatalf("Len after resync = %d, want 32", s.Len())
	}
	drained, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 1; i < len(drained); i++ {
		if drained[i].Tag < drained[i-1].Tag {
			t.Fatalf("service order inverted after resync: %d before %d", drained[i-1].Tag, drained[i].Tag)
		}
	}
}
