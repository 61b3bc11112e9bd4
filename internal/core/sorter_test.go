package core

import (
	"container/heap"
	"errors"
	"math/rand"
	"testing"

	"wfqsort/internal/taglist"
)

// stableOracle is a reference priority queue with FCFS ordering among
// equal tags (what the paper's linked list provides).
type stableOracle struct {
	items []oracleItem
	seq   int
}

type oracleItem struct {
	tag, payload, seq int
}

func (o *stableOracle) Len() int { return len(o.items) }
func (o *stableOracle) Less(i, j int) bool {
	if o.items[i].tag != o.items[j].tag {
		return o.items[i].tag < o.items[j].tag
	}
	return o.items[i].seq < o.items[j].seq
}
func (o *stableOracle) Swap(i, j int)      { o.items[i], o.items[j] = o.items[j], o.items[i] }
func (o *stableOracle) Push(x interface{}) { o.items = append(o.items, x.(oracleItem)) }
func (o *stableOracle) Pop() interface{} {
	old := o.items
	n := len(old)
	item := old[n-1]
	o.items = old[:n-1]
	return item
}

func (o *stableOracle) insert(tag, payload int) {
	heap.Push(o, oracleItem{tag: tag, payload: payload, seq: o.seq})
	o.seq++
}

func (o *stableOracle) extractMin() oracleItem {
	item, ok := heap.Pop(o).(oracleItem)
	if !ok {
		panic("oracle: pop type")
	}
	return item
}

func (o *stableOracle) min() (int, bool) {
	if len(o.items) == 0 {
		return 0, false
	}
	return o.items[0].tag, true
}

func mustNew(t *testing.T, cfg Config) *Sorter {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func TestNewDefaults(t *testing.T) {
	s := mustNew(t, Config{Capacity: 64})
	if s.TagBits() != 12 || s.TagRange() != 4096 {
		t.Fatalf("defaults: TagBits=%d TagRange=%d, want 12/4096", s.TagBits(), s.TagRange())
	}
	if s.Mode() != ModeEager {
		t.Fatalf("default mode = %d, want ModeEager", s.Mode())
	}
	if s.Sections() != 16 || s.SectionSize() != 256 {
		t.Fatalf("sections=%d size=%d, want 16/256", s.Sections(), s.SectionSize())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 1}); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := New(Config{Capacity: 16, Mode: Mode(9)}); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := New(Config{Capacity: 16, Levels: 9, LiteralBits: 4}); err == nil {
		t.Error("oversized tree accepted")
	}
}

func TestBasicInsertExtract(t *testing.T) {
	s := mustNew(t, Config{Capacity: 32})
	for _, tag := range []int{300, 100, 200, 50, 250} {
		if err := s.Insert(tag, tag+1); err != nil {
			t.Fatalf("Insert(%d): %v", tag, err)
		}
	}
	want := []int{50, 100, 200, 250, 300}
	for _, w := range want {
		e, err := s.ExtractMin()
		if err != nil {
			t.Fatalf("ExtractMin: %v", err)
		}
		if e.Tag != w || e.Payload != w+1 {
			t.Fatalf("served tag %d payload %d, want %d/%d", e.Tag, e.Payload, w, w+1)
		}
	}
	if _, err := s.ExtractMin(); !errors.Is(err, taglist.ErrEmpty) {
		t.Fatalf("ExtractMin on empty = %v, want ErrEmpty", err)
	}
}

func TestDuplicatesFCFS(t *testing.T) {
	for _, mode := range []Mode{ModeEager, ModeHardware} {
		// The sequence respects the hardware-mode precondition (every
		// tag ≥ the current minimum) while still interleaving values.
		s := mustNew(t, Config{Capacity: 32, Mode: mode})
		for i, tag := range []int{3, 7, 3, 5, 7} {
			if err := s.Insert(tag, i); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		wantPayloads := []int{0, 2, 3, 1, 4} // 3s in arrival order, 5, then 7s
		for _, wp := range wantPayloads {
			e, err := s.ExtractMin()
			if err != nil {
				t.Fatalf("ExtractMin: %v", err)
			}
			if e.Payload != wp {
				t.Fatalf("mode %d: served payload %d, want %d (FCFS)", mode, e.Payload, wp)
			}
		}
	}
}

func TestPeekMinCostsNothing(t *testing.T) {
	s := mustNew(t, Config{Capacity: 16})
	if err := s.Insert(9, 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	s.ResetStats()
	e, ok := s.PeekMin()
	if !ok || e.Tag != 9 {
		t.Fatalf("PeekMin = %+v,%v", e, ok)
	}
	st := s.StatsSnapshot()
	if st.TreeNodeReads != 0 || st.TableAccesses != 0 || st.ListAccesses != 0 {
		t.Fatalf("PeekMin touched memory: %+v", st)
	}
}

// TestDifferentialRandom drives both modes against the stable oracle with
// heavy duplication and interleaved extracts.
func TestDifferentialRandom(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{
		{"eager", ModeEager},
		{"hardware", ModeHardware},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, Config{Capacity: 512, Mode: tc.mode})
			var o stableOracle
			rng := rand.New(rand.NewSource(99))
			for step := 0; step < 6000; step++ {
				doInsert := s.Len() == 0 || (rng.Intn(2) == 0 && s.Len() < s.Capacity())
				if doInsert {
					lo := 0
					if tc.mode == ModeHardware {
						// Hardware mode: tags must be ≥ the current
						// minimum; after a drain any value is legal.
						if m, ok := o.min(); ok {
							lo = m
						}
					}
					span := 200 // duplicate-heavy narrow range
					tag := lo + rng.Intn(span)
					if tag >= s.TagRange() {
						tag = s.TagRange() - 1
					}
					if err := s.Insert(tag, step&0xFFFF); err != nil {
						t.Fatalf("step %d: Insert(%d): %v", step, tag, err)
					}
					o.insert(tag, step&0xFFFF)
				} else {
					e, err := s.ExtractMin()
					if err != nil {
						t.Fatalf("step %d: ExtractMin: %v", step, err)
					}
					want := o.extractMin()
					if e.Tag != want.tag || e.Payload != want.payload {
						t.Fatalf("step %d: served (%d,%d), oracle (%d,%d)",
							step, e.Tag, e.Payload, want.tag, want.payload)
					}
				}
				if s.Len() != o.Len() {
					t.Fatalf("step %d: Len %d, oracle %d", step, s.Len(), o.Len())
				}
				if step%500 == 0 {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("final: %v", err)
			}
		})
	}
}

// TestCombinedWindowDifferential exercises InsertExtractMin against the
// oracle: the departing minimum is committed before the insert lands.
func TestCombinedWindowDifferential(t *testing.T) {
	for _, mode := range []Mode{ModeEager, ModeHardware} {
		s := mustNew(t, Config{Capacity: 256, Mode: mode})
		var o stableOracle
		rng := rand.New(rand.NewSource(5))
		// Pre-fill with a non-decreasing walk (hardware-mode legal).
		tag := 0
		for i := 0; i < 64; i++ {
			tag += rng.Intn(4)
			if err := s.Insert(tag, i); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			o.insert(tag, i)
		}
		for step := 0; step < 3000; step++ {
			min, _ := o.min()
			tag := min + rng.Intn(150)
			if tag >= s.TagRange() {
				tag = s.TagRange() - 1
			}
			payload := step & 0xFFFF
			served, err := s.InsertExtractMin(tag, payload)
			if err != nil {
				t.Fatalf("mode %d step %d: InsertExtractMin(%d): %v", mode, step, tag, err)
			}
			want := o.extractMin()
			o.insert(tag, payload)
			if served.Tag != want.tag || served.Payload != want.payload {
				t.Fatalf("mode %d step %d: served (%d,%d), oracle (%d,%d)",
					mode, step, served.Tag, served.Payload, want.tag, want.payload)
			}
		}
		// Drain and verify the remainder stays sorted + FCFS.
		got, err := s.Drain()
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		for i := range got {
			want := o.extractMin()
			if got[i].Tag != want.tag || got[i].Payload != want.payload {
				t.Fatalf("drain %d: (%d,%d), oracle (%d,%d)", i, got[i].Tag, got[i].Payload, want.tag, want.payload)
			}
		}
	}
}

func TestCombinedOnEmpty(t *testing.T) {
	s := mustNew(t, Config{Capacity: 16})
	if _, err := s.InsertExtractMin(5, 0); !errors.Is(err, taglist.ErrEmpty) {
		t.Fatalf("combined on empty = %v, want ErrEmpty", err)
	}
}

func TestHardwareModeMonotonicityGuard(t *testing.T) {
	s := mustNew(t, Config{Capacity: 16, Mode: ModeHardware, StrictMonotonic: true})
	if err := s.Insert(100, 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Insert(99, 0); !errors.Is(err, ErrBehindMinimum) {
		t.Fatalf("Insert(99) below min = %v, want ErrBehindMinimum", err)
	}
	if err := s.Insert(100, 0); err != nil {
		t.Fatalf("Insert(100) equal to min rejected: %v", err)
	}
	// Eager mode accepts out-of-order inserts.
	s2 := mustNew(t, Config{Capacity: 16, Mode: ModeEager})
	if err := s2.Insert(100, 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s2.Insert(5, 1); err != nil {
		t.Fatalf("eager Insert(5): %v", err)
	}
	e, err := s2.ExtractMin()
	if err != nil || e.Tag != 5 {
		t.Fatalf("ExtractMin = %+v, %v; want tag 5", e, err)
	}
}

// TestHardwareModeStaleMarkers verifies that markers left behind by
// departures never corrupt later lookups while the monotonicity
// precondition holds.
func TestHardwareModeStaleMarkers(t *testing.T) {
	s := mustNew(t, Config{Capacity: 128, Mode: ModeHardware})
	var o stableOracle
	rng := rand.New(rand.NewSource(21))
	cur := 0
	for step := 0; step < 4000; step++ {
		if s.Len() == 0 || (rng.Intn(3) > 0 && s.Len() < s.Capacity()) {
			if m, ok := o.min(); ok {
				cur = m
			}
			tag := cur + rng.Intn(40)
			if tag >= s.TagRange() {
				break // stop before wraparound; epochs tested separately
			}
			if err := s.Insert(tag, step&0xFFFF); err != nil {
				t.Fatalf("step %d: Insert(%d): %v", step, tag, err)
			}
			o.insert(tag, step&0xFFFF)
		} else {
			e, err := s.ExtractMin()
			if err != nil {
				t.Fatalf("step %d: ExtractMin: %v", step, err)
			}
			want := o.extractMin()
			if e.Tag != want.tag || e.Payload != want.payload {
				t.Fatalf("step %d: served (%d,%d), oracle (%d,%d)", step, e.Tag, e.Payload, want.tag, want.payload)
			}
		}
	}
}

// TestReclaimSectionEpochs runs the full cyclic tag space workflow of
// paper Fig. 6: tags sweep the space, sections behind the minimum are
// reclaimed, and the vacated ranges are reused after wraparound.
func TestReclaimSectionEpochs(t *testing.T) {
	s := mustNew(t, Config{Capacity: 512, Mode: ModeHardware})
	sectionSize := s.SectionSize()
	var o stableOracle
	rng := rand.New(rand.NewSource(31))
	reclaimed := make([]bool, s.Sections())

	insert := func(tag, payload int) {
		t.Helper()
		if err := s.Insert(tag, payload); err != nil {
			t.Fatalf("Insert(%d): %v", tag, err)
		}
		o.insert(tag, payload)
	}
	extract := func() {
		t.Helper()
		e, err := s.ExtractMin()
		if err != nil {
			t.Fatalf("ExtractMin: %v", err)
		}
		want := o.extractMin()
		if e.Tag != want.tag || e.Payload != want.payload {
			t.Fatalf("served (%d,%d), oracle (%d,%d)", e.Tag, e.Payload, want.tag, want.payload)
		}
	}

	// Epoch 1: sweep tags upward through the whole space. Every insert
	// respects the hardware precondition: tag ≥ the current live minimum.
	base := 0
	step := 0
	for base < s.TagRange()-64 {
		for i := 0; i < 8; i++ {
			lo := base
			if m, ok := o.min(); ok && m > lo {
				lo = m
			}
			tag := lo + rng.Intn(64)
			if tag >= s.TagRange() {
				tag = s.TagRange() - 1
			}
			insert(tag, step&0xFFFF)
			step++
		}
		for i := 0; i < 8; i++ {
			extract()
		}
		if m, ok := o.min(); ok {
			base = m
		} else {
			base += 32
		}
		// Reclaim fully-passed sections as the window moves on.
		minSection := base / sectionSize
		for sec := 0; sec < minSection; sec++ {
			if !reclaimed[sec] {
				if err := s.ReclaimSection(sec); err != nil {
					t.Fatalf("ReclaimSection(%d): %v", sec, err)
				}
				reclaimed[sec] = true
			}
		}
	}
	// Drain epoch 1.
	for s.Len() > 0 {
		extract()
	}
	// Epoch 2: the space has wrapped; low values are legal again, still
	// respecting the ≥-minimum precondition within the epoch.
	for i := 0; i < 200; i++ {
		lo := 0
		if m, ok := o.min(); ok {
			lo = m
		}
		tag := lo + rng.Intn(32)
		if tag >= sectionSize*2 {
			tag = sectionSize*2 - 1
		}
		insert(tag, i&0xFFFF)
		if i%3 == 0 {
			extract()
		}
	}
	for s.Len() > 0 {
		extract()
	}
}

// TestCyclicWraparoundOrder verifies the paper's cyclic tag space end to
// end: after the WFQ computation wraps to zero, new small tags insert
// after the largest live tag (their sections having been reclaimed) and
// are served last, preserving cyclic service order.
func TestCyclicWraparoundOrder(t *testing.T) {
	s := mustNew(t, Config{Capacity: 64, Mode: ModeHardware})
	// Live window near the top of the 12-bit space.
	for _, tag := range []int{3900, 3950, 4000, 4090} {
		if err := s.Insert(tag, tag); err != nil {
			t.Fatalf("Insert(%d): %v", tag, err)
		}
	}
	// Sections 0..14 lie behind the minimum (3900/256 = section 15):
	// reclaim the low ones so wrapped values can reuse them.
	for sec := 0; sec < 15; sec++ {
		if err := s.ReclaimSection(sec); err != nil {
			t.Fatalf("ReclaimSection(%d): %v", sec, err)
		}
	}
	// Wrapped tags (virtual times past 4095 mapped mod 4096).
	for _, tag := range []int{5, 40, 200} {
		if err := s.Insert(tag, tag); err != nil {
			t.Fatalf("Insert wrapped (%d): %v", tag, err)
		}
	}
	want := []int{3900, 3950, 4000, 4090, 5, 40, 200}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, w := range want {
		if got[i].Tag != w {
			t.Fatalf("cyclic service order[%d] = %d, want %d (full: %v)", i, got[i].Tag, w, got)
		}
	}
}

// TestCyclicWrapInterleaved wraps with interleaved service, checking the
// combined window too.
func TestCyclicWrapInterleaved(t *testing.T) {
	s := mustNew(t, Config{Capacity: 64, Mode: ModeHardware})
	for _, tag := range []int{4000, 4050, 4095} {
		if err := s.Insert(tag, 0); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for sec := 0; sec < 15; sec++ {
		if err := s.ReclaimSection(sec); err != nil {
			t.Fatalf("ReclaimSection(%d): %v", sec, err)
		}
	}
	// Combined windows: serve 4000, insert wrapped 10; serve 4050,
	// insert wrapped 30.
	served, err := s.InsertExtractMin(10, 0)
	if err != nil {
		t.Fatalf("InsertExtractMin: %v", err)
	}
	if served.Tag != 4000 {
		t.Fatalf("served %d, want 4000", served.Tag)
	}
	served, err = s.InsertExtractMin(30, 0)
	if err != nil {
		t.Fatalf("InsertExtractMin: %v", err)
	}
	if served.Tag != 4050 {
		t.Fatalf("served %d, want 4050", served.Tag)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := []int{4095, 10, 30}
	for i, w := range want {
		if got[i].Tag != w {
			t.Fatalf("order[%d] = %d, want %d", i, got[i].Tag, w)
		}
	}
}

func TestReclaimSectionGuards(t *testing.T) {
	s := mustNew(t, Config{Capacity: 32, Mode: ModeHardware, StrictMonotonic: true})
	if err := s.Insert(300, 0); err != nil { // lives in section 1
		t.Fatalf("Insert: %v", err)
	}
	// Section 1 holds the minimum; sections at or ahead of the minimum
	// are not reclaimable (only ranges behind it, paper Fig. 6).
	if err := s.ReclaimSection(1); err == nil {
		t.Fatal("reclaim of live section accepted")
	}
	if err := s.ReclaimSection(2); err == nil {
		t.Fatal("reclaim of section ahead of the minimum accepted")
	}
	if err := s.ReclaimSection(0); err != nil {
		t.Fatalf("reclaim of section behind the minimum: %v", err)
	}
	if err := s.ReclaimSection(-1); err == nil {
		t.Fatal("negative section accepted")
	}
	if err := s.ReclaimSection(16); err == nil {
		t.Fatal("out-of-range section accepted")
	}
}

// TestFixedTimeGuarantee asserts the headline property across a heavy
// random run: tree search depth never exceeds the level count, and every
// list operation fits the four-cycle window (≤2 reads + ≤2 writes).
func TestFixedTimeGuarantee(t *testing.T) {
	s := mustNew(t, Config{Capacity: 1024})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 512; i++ {
		if err := s.Insert(rng.Intn(4096), i&0xFFFF); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s.ResetStats()
	ops := uint64(0)
	for i := 0; i < 2000; i++ {
		if _, err := s.InsertExtractMin(rng.Intn(4096), i&0xFFFF); err != nil {
			t.Fatalf("InsertExtractMin: %v", err)
		}
		ops++
	}
	st := s.StatsSnapshot()
	if st.TreeMaxDepth > 3 {
		t.Fatalf("tree search depth %d exceeds 3 levels", st.TreeMaxDepth)
	}
	if st.ListWindows != ops {
		t.Fatalf("list windows %d, want %d (one window per combined op)", st.ListWindows, ops)
	}
	if st.ListAccesses > 4*ops {
		t.Fatalf("list accesses %d exceed 4 per window (%d ops)", st.ListAccesses, ops)
	}
}

func TestMemoryInventory(t *testing.T) {
	s := mustNew(t, Config{Capacity: 64})
	tree, table, store := s.MemoryBits()
	wantTree := []int{16, 256, 4096}
	for i := range wantTree {
		if tree[i] != wantTree[i] {
			t.Errorf("tree level %d = %d bits, want %d", i, tree[i], wantTree[i])
		}
	}
	if table != 4096*(6+1) { // 64 links → 6 address bits + valid
		t.Errorf("table = %d bits, want %d", table, 4096*7)
	}
	if store <= 0 {
		t.Errorf("store = %d bits", store)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	s := mustNew(t, Config{Capacity: 4})
	for i := 0; i < 4; i++ {
		if err := s.Insert(i*10, i); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := s.Insert(99, 0); !errors.Is(err, taglist.ErrFull) {
		t.Fatalf("Insert into full sorter = %v, want ErrFull", err)
	}
	// Combined op still works at capacity (reuses the departing link).
	served, err := s.InsertExtractMin(99, 7)
	if err != nil {
		t.Fatalf("InsertExtractMin at capacity: %v", err)
	}
	if served.Tag != 0 {
		t.Fatalf("served tag %d, want 0", served.Tag)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d after combined op, want 4", s.Len())
	}
}

func TestSnapshotOrder(t *testing.T) {
	s := mustNew(t, Config{Capacity: 16})
	for _, tag := range []int{5, 1, 9, 1} {
		if err := s.Insert(tag, 0); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := []int{1, 1, 5, 9}
	for i := range want {
		if snap[i].Tag != want[i] {
			t.Fatalf("snapshot[%d].Tag = %d, want %d (full: %v)", i, snap[i].Tag, want[i], snap)
		}
	}
}

func TestHardwareResetOnEmpty(t *testing.T) {
	s := mustNew(t, Config{Capacity: 16, Mode: ModeHardware})
	if err := s.Insert(3000, 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := s.ExtractMin(); err != nil {
		t.Fatalf("ExtractMin: %v", err)
	}
	// System drained: initialization mode re-entered; a *smaller* tag is
	// legal again and stale state must not corrupt the order.
	if err := s.Insert(10, 1); err != nil {
		t.Fatalf("Insert after drain: %v", err)
	}
	if err := s.Insert(20, 2); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	e, err := s.ExtractMin()
	if err != nil || e.Tag != 10 {
		t.Fatalf("ExtractMin = %+v, %v; want tag 10", e, err)
	}
}

func BenchmarkSorterInsertExtract(b *testing.B) {
	s, err := New(Config{Capacity: 4096})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		if err := s.Insert(rng.Intn(4096), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.InsertExtractMin(rng.Intn(4096), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSorterRemove times a timer cancel on the 20-bit deadline
// geometry: 64 entries share each of 256 deadlines, and each iteration
// cancels the newest entry of one deadline (walking its whole group)
// and re-arms it. It reports the fabric accesses charged per
// iteration.
func BenchmarkSorterRemove(b *testing.B) {
	const (
		deadlines = 256
		perTag    = 64
	)
	s, err := New(timersConfig())
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < deadlines*perTag; p++ {
		if err := s.Insert(p%deadlines, p); err != nil {
			b.Fatal(err)
		}
	}
	before := s.Fabric().StatsSnapshot().Accesses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The last payload armed on deadline d; re-arming keeps it the
		// newest.
		d := i % deadlines
		p := (perTag-1)*deadlines + d
		if found, err := s.Remove(d, p); err != nil || !found {
			b.Fatalf("Remove(%d, %d) = %v, %v", d, p, found, err)
		}
		if err := s.Insert(d, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Fabric().StatsSnapshot().Accesses()-before)/float64(b.N), "accesses/op")
}

// TestCombinedWindowSameTag pins the simultaneous same-tag corner of
// the combined window: when the arriving tag equals the departing
// minimum, the old entry must depart (it was committed at the window
// start) and the new one must queue behind every entry already holding
// that tag — pure FCFS, no same-cycle swap.
func TestCombinedWindowSameTag(t *testing.T) {
	for _, mode := range []Mode{ModeEager, ModeHardware} {
		s := mustNew(t, Config{Capacity: 64, Mode: mode})
		const tag = 7
		for p := 0; p < 4; p++ {
			if err := s.Insert(tag, p); err != nil {
				t.Fatalf("mode %d: Insert: %v", mode, err)
			}
		}
		// Each combined op inserts payload 4+i at the same tag; the
		// departure stream must stay the strict FIFO 0,1,2,...
		for i := 0; i < 32; i++ {
			served, err := s.InsertExtractMin(tag, 4+i)
			if err != nil {
				t.Fatalf("mode %d op %d: InsertExtractMin: %v", mode, i, err)
			}
			if served.Tag != tag || served.Payload != i {
				t.Fatalf("mode %d op %d: served (%d,%d), want (%d,%d)", mode, i, served.Tag, served.Payload, tag, i)
			}
			if s.Len() != 4 {
				t.Fatalf("mode %d op %d: len %d, want steady 4", mode, i, s.Len())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("mode %d op %d: %v", mode, i, err)
			}
		}
		got, err := s.Drain()
		if err != nil {
			t.Fatalf("mode %d: Drain: %v", mode, err)
		}
		for i, e := range got {
			if e.Tag != tag || e.Payload != 32+i {
				t.Fatalf("mode %d drain %d: (%d,%d), want (%d,%d)", mode, i, e.Tag, e.Payload, tag, 32+i)
			}
		}
	}
}

// TestCombinedWindowSameTagSingleEntry: with exactly one queued entry,
// a same-tag combined op must swap generations — old departs, new
// remains — never serve the entry it just inserted.
func TestCombinedWindowSameTagSingleEntry(t *testing.T) {
	for _, mode := range []Mode{ModeEager, ModeHardware} {
		s := mustNew(t, Config{Capacity: 16, Mode: mode})
		if err := s.Insert(9, 100); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		served, err := s.InsertExtractMin(9, 200)
		if err != nil {
			t.Fatalf("InsertExtractMin: %v", err)
		}
		if served.Payload != 100 {
			t.Fatalf("mode %d: served payload %d, want the pre-existing 100", mode, served.Payload)
		}
		if s.Len() != 1 {
			t.Fatalf("mode %d: len %d, want 1", mode, s.Len())
		}
		e, err := s.ExtractMin()
		if err != nil {
			t.Fatalf("ExtractMin: %v", err)
		}
		if e.Tag != 9 || e.Payload != 200 {
			t.Fatalf("mode %d: remainder (%d,%d), want (9,200)", mode, e.Tag, e.Payload)
		}
	}
}
