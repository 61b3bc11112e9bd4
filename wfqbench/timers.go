package main

import (
	"fmt"
	"math/rand"

	"wfqsort"
)

// The timers-16k workload: a deadline queue of cfg.Live armed timers on
// a 20-bit, 2^20-link Sorter with no engine. Each steady step cancels a
// timer (60%, Zipf-biased to the newest) or fires the earliest, then
// re-arms one, so removes run beside inserts and extracts and the live
// set stays at cfg.Live. Arms land within a horizon that puts
// timersPerDeadline timers on each deadline tick, so a cancel walks a
// group as long as with a million live timers, while the touched
// memory stays within a core's L2: with 1M live timers the workload
// lived in the host's shared L3 and its host-time metrics moved with
// other tenants' cache use. Every draw comes from a script generated
// from the seed before set-up starts.

const (
	timersLevels      = 5
	timersLiteralBits = 4
	timersCapacity    = 1 << 20
	timersPerDeadline = 64 // live timers per deadline tick: sets the arm horizon
	timersZipfS       = 1.2
	timersCancelFrac  = 0.6
	scriptLen         = 1 << 20 // script entries, reused cyclically
)

// timerScript holds the pre-drawn inputs: per step whether it cancels
// and which newest-rank it cancels, and per arm the delay above the
// floor.
type timerScript struct {
	cancel []bool
	rank   []uint32
	delay  []uint16
}

func newTimerScript(seed int64, live int) timerScript {
	horizon := max(live/timersPerDeadline, 1)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, timersZipfS, 1, uint64(live-1))
	s := timerScript{
		cancel: make([]bool, scriptLen),
		rank:   make([]uint32, scriptLen),
		delay:  make([]uint16, scriptLen),
	}
	for i := 0; i < scriptLen; i++ {
		s.cancel[i] = rng.Float64() < timersCancelFrac
		s.rank[i] = uint32(zipf.Uint64())
		s.delay[i] = uint16(rng.Intn(horizon))
	}
	return s
}

// timerArena is the client's ledger of armed timers. Ids are arena
// slots and double as sorter payloads; live is a newest-last stack for
// Zipf victim choice and pos maps an id to its place in it.
type timerArena struct {
	tag   []int32
	armed []bool
	free  []int32
	live  []int32
	pos   []int32
}

func newTimerArena(capacity int) *timerArena {
	a := &timerArena{
		tag:   make([]int32, capacity),
		armed: make([]bool, capacity),
		free:  make([]int32, capacity),
		live:  make([]int32, 0, capacity),
		pos:   make([]int32, capacity),
	}
	a.reset()
	return a
}

func (a *timerArena) reset() {
	clear(a.armed)
	a.free = a.free[:cap(a.free)]
	for i := range a.free {
		a.free[i] = int32(len(a.free) - 1 - i)
	}
	a.live = a.live[:0]
}

func (a *timerArena) arm(tag int) int {
	id := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.tag[id] = int32(tag)
	a.armed[id] = true
	a.pos[id] = int32(len(a.live))
	a.live = append(a.live, id)
	return int(id)
}

// release frees id; false means the id was not armed (a ghost).
func (a *timerArena) release(id int) bool {
	if id < 0 || id >= len(a.armed) || !a.armed[id] {
		return false
	}
	p := a.pos[id]
	last := a.live[len(a.live)-1]
	a.live[p] = last
	a.pos[last] = p
	a.live = a.live[:len(a.live)-1]
	a.armed[id] = false
	a.free = append(a.free, int32(id))
	return true
}

// victim returns the timer rank places below the newest.
func (a *timerArena) victim(rank uint32) (id, tag int) {
	r := int(rank)
	if r >= len(a.live) {
		r = len(a.live) - 1
	}
	id32 := a.live[len(a.live)-1-r]
	return int(id32), int(a.tag[id32])
}

// Op kinds, for per-op-type accounting.
const (
	opInsert = iota
	opRemove
	opExtract
	numOps
)

var opNames = [numOps]string{"core.insert", "core.remove", "core.extract"}

// opCharge accumulates what the modelled hardware charged one op kind:
// fabric clock cycles, reads+writes and stall cycles summed over the
// fabric regions, and the component counters of Sorter.StatsSnapshot.
type opCharge struct {
	n                     int64
	cycles, fabric, stall uint64
	treeReads, treeWrites uint64
	table, list           uint64
}

// charge is one op kind's row of report.Charges, per op.
type charge struct {
	Ops            int64   `json:"ops"`
	Cycles         float64 `json:"fabric_cycles"`
	FabricAccesses float64 `json:"fabric_accesses"`
	SorterAccesses float64 `json:"sorter_stats_accesses"`
	TagStore       float64 `json:"tag_store_accesses"`
}

func chargeRows(ch [numOps]opCharge) map[string]charge {
	rows := map[string]charge{}
	for kind, c := range ch {
		n := float64(c.n)
		rows[opNames[kind]] = charge{
			Ops:            c.n,
			Cycles:         float64(c.cycles) / n,
			FabricAccesses: float64(c.fabric) / n,
			SorterAccesses: float64(c.treeReads+c.treeWrites+c.table+c.list) / n,
			TagStore:       float64(c.list) / n,
		}
	}
	return rows
}

// timerRun is one sorter's life: fill, deterministic prefix, and (for
// the last set-up) the timed steady phase and the drain.
type timerRun struct {
	cfg    config
	s      *wfqsort.Sorter
	fab    *wfqsort.Fabric
	script timerScript
	arena  *timerArena
	floor  int
	next   int // script cursor

	armed, fired, cancelled, drained int64
	lost, ghosts, belowFloor         int64
	failedOps                        int64
	firstErr                         error

	// Per-op accounting, enabled for the prefix.
	account bool
	charge  [numOps]opCharge
	cycles0 uint64
	lastSt  wfqsort.SorterStats
	lastFab fabricTotals

	// Call timing, enabled for the measured phase: the run-clock start
	// and end of the latest sorter call.
	timing             bool
	clk                clock
	callStart, callEnd int64
}

type fabricTotals struct{ accesses, stall uint64 }

func (t *timerRun) fabricTotals() fabricTotals {
	var ft fabricTotals
	for _, r := range t.fab.Regions() {
		st := r.StatsSnapshot()
		ft.accesses += st.Reads + st.Writes
		ft.stall += st.StallCycles
	}
	return ft
}

// before and after bracket every sorter call: the measured phase
// stamps the call's start and end, the prefix books its modelled
// charge. Ledger bookkeeping stays outside the bracket.
func (t *timerRun) before() {
	if t.account {
		t.cycles0 = t.fab.Clock().Now()
	}
	if t.timing {
		t.callStart = t.clk.now()
	}
}

func (t *timerRun) after(kind int) {
	if t.timing {
		t.callEnd = t.clk.now()
	}
	if t.account {
		t.book(kind)
	}
}

// book charges everything since the previous op to kind.
func (t *timerRun) book(kind int) {
	st := t.s.StatsSnapshot()
	ft := t.fabricTotals()
	c := &t.charge[kind]
	c.n++
	c.cycles += t.fab.Clock().Now() - t.cycles0
	c.fabric += ft.accesses - t.lastFab.accesses
	c.stall += ft.stall - t.lastFab.stall
	c.treeReads += st.TreeNodeReads - t.lastSt.TreeNodeReads
	c.treeWrites += st.TreeNodeWrites - t.lastSt.TreeNodeWrites
	c.table += st.TableAccesses - t.lastSt.TableAccesses
	c.list += st.ListAccesses - t.lastSt.ListAccesses
	t.lastSt, t.lastFab = st, ft
}

func (t *timerRun) fail(err error) {
	t.failedOps++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// arm inserts one timer at floor+1+delay.
func (t *timerRun) arm() {
	deadline := t.floor + 1 + int(t.script.delay[t.next%scriptLen])
	id := t.arena.arm(deadline)
	t.before()
	err := t.s.Insert(deadline, id)
	t.after(opInsert)
	if err != nil {
		t.arena.release(id)
		t.fail(fmt.Errorf("arm %d: %w", deadline, err))
		return
	}
	t.armed++
}

// cancelOrFire runs the first half of step i and reports which op it
// issued.
func (t *timerRun) cancelOrFire(i int) int {
	if t.script.cancel[i%scriptLen] {
		id, tag := t.arena.victim(t.script.rank[i%scriptLen])
		t.before()
		found, err := t.s.Remove(tag, id)
		t.after(opRemove)
		switch {
		case err != nil:
			t.fail(fmt.Errorf("cancel %d: %w", tag, err))
		case !found:
			t.lost++ // armed in the ledger, gone from the sorter
		}
		if !t.arena.release(id) {
			t.ghosts++
		}
		t.cancelled++
		return opRemove
	}
	t.before()
	e, err := t.s.ExtractMin()
	t.after(opExtract)
	if err != nil {
		t.fail(fmt.Errorf("fire: %w", err))
		return opExtract
	}
	if e.Tag < t.floor {
		t.belowFloor++
	}
	t.floor = e.Tag
	if !t.arena.release(e.Payload) {
		t.ghosts++
	}
	t.fired++
	return opExtract
}

// step is one untimed steady step: cancel or fire, then re-arm.
func (t *timerRun) step() {
	t.cancelOrFire(t.next)
	t.arm()
	t.next++
}

// setup builds the sorter and arms cfg.Live timers.
func (t *timerRun) setup() error {
	s, err := wfqsort.NewSorter(wfqsort.SorterConfig{
		Levels:      timersLevels,
		LiteralBits: timersLiteralBits,
		Capacity:    timersCapacity,
	})
	if err != nil {
		return err
	}
	t.s, t.fab = s, s.Fabric()
	for i := 0; i < t.cfg.Live; i++ {
		t.arm()
		t.next++
	}
	return nil
}

// prefix runs cfg.PrefixSteps steps with per-op accounting and returns
// the fabric cycles per op. The script makes it identical for a seed.
func (t *timerRun) prefix() float64 {
	t.account = true
	t.lastSt, t.lastFab = t.s.StatsSnapshot(), t.fabricTotals()
	c0 := t.fab.Clock().Now()
	for i := 0; i < t.cfg.PrefixSteps; i++ {
		t.step()
	}
	t.account = false
	return float64(t.fab.Clock().Now()-c0) / float64(2*t.cfg.PrefixSteps)
}

// drain fires every remaining timer, checking order.
func (t *timerRun) drain() (outOfOrder int64) {
	prev := -1
	for t.s.Len() > 0 {
		e, err := t.s.ExtractMin()
		if err != nil {
			t.fail(fmt.Errorf("drain: %w", err))
			return outOfOrder
		}
		if e.Tag < prev {
			outOfOrder++
		}
		prev = e.Tag
		if !t.arena.release(e.Payload) {
			t.ghosts++
		}
		t.drained++
	}
	t.lost += int64(len(t.arena.live)) // armed in the ledger, never seen again
	return outOfOrder
}

func runTimers(cfg config) (*report, error) {
	if cfg.Live <= 1 || cfg.Live >= timersCapacity {
		return nil, fmt.Errorf("live timers %d must be in (1, %d)", cfg.Live, timersCapacity)
	}
	rep := newReport(cfg)
	script := newTimerScript(cfg.Seed, cfg.Live)
	arena := newTimerArena(timersCapacity)

	// Set-up, repeated: each repeat builds a sorter, fills it, and runs
	// the deterministic prefix; the last one goes on to the timed phase.
	var t *timerRun
	var heap, modeled []float64
	for i := 0; i < cfg.Setups; i++ {
		t = nil // release the previous sorter before measuring the heap
		arena.reset()
		before := liveHeapMiB()
		clk := newClock()
		t = &timerRun{cfg: cfg, script: script, arena: arena}
		if err := t.setup(); err != nil {
			return nil, err
		}
		rep.Setups = append(rep.Setups, clk.seconds())
		heap = append(heap, liveHeapMiB()-before)
		modeled = append(modeled, t.prefix())
	}
	rep.setE2E("setup_s", median(rep.Setups))
	rep.setE2E("sorter_heap_mb", median(heap))
	rep.setE2E("modeled_cycles_per_op", modeled[len(modeled)-1])
	same := true
	for _, m := range modeled {
		same = same && m == modeled[0]
	}
	rep.check("determinism", same, "modelled cycles/op per set-up %v", modeled)
	rep.Charges = chargeRows(t.charge)
	maxDepth := t.s.StatsSnapshot().TreeMaxDepth

	if cfg.Trace {
		rep.spans = newTracer(cfg.SpanEvery)
	}
	lat, perOp, busy := t.timed(cfg, rep)

	outOfOrder := t.drain()
	rep.Attempted = t.armed + t.fired + t.cancelled + t.drained
	rep.FailedOps = t.failedOps
	rep.check("program-errors", t.firstErr == nil, "%d failed ops, first: %v", t.failedOps, t.firstErr)
	rep.check("ledger", t.armed == t.fired+t.cancelled+t.drained && t.lost == 0 && t.ghosts == 0,
		"armed %d = fired %d + cancelled %d + drained %d; lost %d, ghosts %d",
		t.armed, t.fired, t.cancelled, t.drained, t.lost, t.ghosts)
	rep.check("fire-floor", t.belowFloor == 0, "%d fires below the floor", t.belowFloor)
	rep.check("drain-order", outOfOrder == 0, "%d drained out of order", outOfOrder)

	rep.setE2E("rtt_p50_us", lat.lat.quantile(0.50, 1e3))
	rep.setE2E("rtt_p90_us", lat.lat.quantile(0.90, 1e3))
	rep.setE2E("served_per_s", lat.rate(lat.served))
	rep.setE2E("ops_per_s", lat.rate(lat.ops))
	rep.Windows = map[string][]float64{
		"rtt_p50_us": lat.lat.perWindow(0.50, 1e3),
		"rtt_p90_us": lat.lat.perWindow(0.90, 1e3),
		"rtt_p99_us": lat.lat.perWindow(0.99, 1e3),
		"ops_per_s":  lat.perSecond(lat.ops),
	}

	if cfg.Trace {
		setTimerLayers(rep, t.charge, maxDepth, perOp, busy)
	}
	return rep, nil
}

// timed runs steady steps through the warm-up and the measured phase,
// timing each sorter call. It returns the windows, the traced per-op
// kind samples, and the share of the measured phase spent inside
// sorter calls.
func (t *timerRun) timed(cfg config, rep *report) (*windows, [numOps]series, float64) {
	t.timing, t.clk = true, newClock()
	defer func() { t.timing = false }()
	w := newWindows(int64(cfg.Warmup), cfg.Duration, cfg.Windows)
	var perOp [numOps]series
	if cfg.Trace {
		for k := range perOp {
			perOp[k] = newSeries(cfg.Windows)
		}
	}
	var inSorter int64
	var cpu0 cpuTimes
	tr := rep.spans
	for op := int64(0); ; op++ {
		kind := t.cancelOrFire(t.next)
		a, b := t.callStart, t.callEnd
		t.arm()
		c, d := t.callStart, t.callEnd
		t.next++
		i := w.index(a)
		if i < 0 {
			if a >= w.end() {
				break
			}
			continue
		}
		if !cpu0.ok {
			cpu0 = readCPUTimes()
		}
		w.ops[i] += 2
		if kind == opExtract {
			w.served[i]++
		}
		if cfg.Trace {
			inSorter += (b - a) + (d - c)
		}
		if op%cfg.SampleEvery != 0 {
			continue
		}
		w.lat.add(i, clampNs(b-a))
		w.lat.add(i, clampNs(d-c))
		if cfg.Trace {
			perOp[kind].add(i, clampNs(b-a))
			perOp[opInsert].add(i, clampNs(d-c))
			if tr.sampled(op) {
				root := tr.add(op, "timers.step", -1, a, d)
				tr.add(op, opNames[kind], root, a, b)
				tr.add(op, opNames[opInsert], root, c, d)
			}
		}
	}
	rep.Host.StealFrac = stealSince(cpu0, readCPUTimes())
	return w, perOp, float64(inSorter) / float64(w.end()-w.start)
}

func setTimerLayers(rep *report, ch [numOps]opCharge, maxDepth int, perOp [numOps]series, busy float64) {
	for kind, name := range opNames {
		rep.setLayer(name+"_ns.p50", perOp[kind].quantile(0.50, 1))
		rep.setLayer(name+"_ns.p99", perOp[kind].quantile(0.99, 1))
	}
	rep.setLayer("core.busy_frac", busy)

	var all opCharge
	for _, c := range ch {
		all.n += c.n
		all.stall += c.stall
		all.treeReads += c.treeReads
		all.treeWrites += c.treeWrites
		all.table += c.table
		all.list += c.list
	}
	per := func(v uint64, n int64) float64 { return float64(v) / float64(n) }
	rep.setLayer("trie.node_reads_per_op", per(all.treeReads, all.n))
	rep.setLayer("trie.node_writes_per_op", per(all.treeWrites, all.n))
	rep.setLayer("trie.max_depth", float64(maxDepth))
	rep.setLayer("transtable.accesses_per_op", per(all.table, all.n))
	rep.setLayer("taglist.accesses_per_op", per(all.list, all.n))
	rep.setLayer("taglist.accesses_per_remove", per(ch[opRemove].list, ch[opRemove].n))
	rep.setLayer("membus.stall_cycles_per_op", per(all.stall, all.n))
	for kind, suffix := range [numOps]string{"insert", "remove", "extract"} {
		c := ch[kind]
		rep.setLayer("membus.accesses_per_"+suffix, per(c.fabric, c.n))
		rep.setLayer("membus.cycles_per_"+suffix, per(c.cycles, c.n))
	}
}
