// Per-lane datapath: one goroutine per lane owning that lane's sorter,
// memory fabric, slot table, and conservation ledger. Producers reach a
// lane only through its sharded SPSC submission rings and its transfer
// inbox; everything else on this file runs on the lane goroutine
// (DESIGN.md §14 has the ownership diagram).
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfqsort/internal/core"
	"wfqsort/internal/metrics"
	"wfqsort/internal/ring"
	"wfqsort/internal/sharded"
	"wfqsort/internal/taglist"
)

// laneShard is one producer shard of a lane's submission path: a
// lock-free SPSC ring whose single-producer role is claimed per push
// with an uncontended TryLock (two producers that pick different shards
// never touch the same cache line; the lane goroutine is the one
// consumer of every shard, so the pop side needs no lock at all).
type laneShard struct {
	mu sync.Mutex
	r  *ring.SPSC[item]
}

// laneMirror is the lane's modelled-hardware gauge snapshot, published
// by the lane goroutine for StatsSnapshot readers.
type laneMirror struct {
	cycles uint64
	fabric []metrics.PortPressure
}

// laneWorker is one lane's datapath state. Fields below the atomics
// block are owned by the lane goroutine; the atomics are the lane's
// slice of the conservation ledger and its cross-goroutine gauges.
type laneWorker struct {
	e   *Engine
	idx int
	ln  *core.Sorter

	shards []*laneShard

	// xfer is the transfer inbox: evacuees and quarantine forwards from
	// other lane goroutines. Multi-producer (any lane may forward), so
	// pushes serialize on xferMu; the lane goroutine is the consumer.
	xfer   *ring.SPSC[item]
	xferMu sync.Mutex

	// control is the dynamic-update inbox: Cancel and Reweight requests
	// from producer goroutines (serialized on controlMu; the lane
	// goroutine is the consumer). Sized by Config.CancelRingShare so
	// control traffic and packet admission cannot starve each other.
	control   *ring.SPSC[item]
	controlMu sync.Mutex

	// served is the lane's output ring toward the merge stage: the lane
	// goroutine produces extracted entries, the merge goroutine consumes
	// them in global tag order. Its capacity (Config.ServeAhead) bounds
	// how far this lane runs ahead of the slowest lane.
	served *ring.SPSC[outEntry]

	notify chan struct{} // producer → lane doorbell
	space  chan struct{} // lane → blocked-producer doorbell
	probe  chan struct{} // supervisor reinstate-probe offer
	inject chan func()   // chaos seam (InjectLane)

	abort     chan struct{} // per-lane drain abort (watchdog)
	abortOnce sync.Once

	slots []slot
	free  []int

	panicStreak int
	arrived     bool
	rrShard     int
	sinceMirror int

	// Conservation ledger (atomic: summed by StatsSnapshot at any time).
	inserted   atomic.Uint64
	extracted  atomic.Uint64
	removed    atomic.Uint64
	faultLost  atomic.Uint64
	drainShed  atomic.Uint64
	ghostDrops atomic.Uint64
	evacuated  atomic.Uint64

	// Telemetry and cross-goroutine gauges.
	cancelMisses atomic.Uint64
	reweights    atomic.Uint64
	recoveries   atomic.Uint64
	batches      atomic.Uint64
	batchedOps   atomic.Uint64
	idles        atomic.Uint64
	panics       atomic.Uint64
	progress     atomic.Uint64
	maxBatch     atomic.Int64
	sorterLen    atomic.Int64
	doneFlag     atomic.Bool
	mirror       atomic.Pointer[laneMirror]
}

func newLaneWorker(e *Engine, idx int, ln *core.Sorter) *laneWorker {
	lw := &laneWorker{
		e:       e,
		idx:     idx,
		ln:      ln,
		shards:  make([]*laneShard, e.cfg.Shards),
		xfer:    ring.New[item](e.cfg.LaneCapacity + e.cfg.RingSize),
		control: ring.New[item](controlRingCap(e.cfg)),
		served:  ring.New[outEntry](e.cfg.ServeAhead),
		notify:  make(chan struct{}, 1),
		space:   make(chan struct{}, 1),
		probe:   make(chan struct{}, 1),
		inject:  make(chan func(), 16),
		abort:   make(chan struct{}),
		slots:   make([]slot, e.cfg.LaneCapacity),
		free:    make([]int, 0, e.cfg.LaneCapacity),
	}
	shardCap := (e.cfg.RingSize + e.cfg.Shards - 1) / e.cfg.Shards
	for i := range lw.shards {
		lw.shards[i] = &laneShard{r: ring.New[item](shardCap)}
	}
	for idx := e.cfg.LaneCapacity - 1; idx >= 0; idx-- {
		lw.free = append(lw.free, idx)
	}
	return lw
}

// controlRingCap sizes a lane's control ring from the configured share
// of the submission ring (never below one slot).
func controlRingCap(cfg Config) int {
	n := int(cfg.CancelRingShare * float64(cfg.RingSize))
	if n < 1 {
		n = 1
	}
	return n
}

// pushControl offers one cancel/reweight request to the lane's control
// ring from a producer goroutine (multi-producer: serialized on
// controlMu).
func (lw *laneWorker) pushControl(it item) bool {
	lw.controlMu.Lock()
	ok := lw.control.Push(it)
	lw.controlMu.Unlock()
	return ok
}

// tryPush offers one submission to the lane's shard rings from a
// producer goroutine. The shard hint comes from the submission
// timestamp, so concurrent producers spread across shards; a shard
// whose lock is contended is skipped for the next one, and only when
// every shard was contended-or-full does the producer settle the
// question with one blocking lock on its start shard (distinguishing
// transient contention, which retries elsewhere, from genuine
// fullness, which must report false so the policy can drop or block).
func (lw *laneWorker) tryPush(it item) bool {
	n := len(lw.shards)
	start := int(uint64(it.submitNs) % uint64(n))
	for d := 0; d < n; d++ {
		sh := lw.shards[(start+d)%n]
		if !sh.mu.TryLock() {
			continue
		}
		ok := sh.r.Push(it)
		sh.mu.Unlock()
		if ok {
			return true
		}
	}
	sh := lw.shards[start]
	sh.mu.Lock()
	ok := sh.r.Push(it)
	sh.mu.Unlock()
	return ok
}

// wake rings the lane's doorbell (any goroutine).
func (lw *laneWorker) wake() {
	select {
	case lw.notify <- struct{}{}:
	default:
	}
}

// popOne takes the next backlog item: transfer inbox first (evacuees
// carry already-accounted packets), then the shard rings round-robin.
// Lane goroutine only.
func (lw *laneWorker) popOne() (item, bool) {
	if it, ok := lw.xfer.Pop(); ok {
		return it, true
	}
	n := len(lw.shards)
	for d := 0; d < n; d++ {
		sh := lw.shards[(lw.rrShard+d)%n]
		if it, ok := sh.r.Pop(); ok {
			lw.rrShard = (lw.rrShard + d + 1) % n
			return it, true
		}
	}
	return item{}, false
}

// backlogEmpty reports whether the lane's inbound rings are drained
// (control requests included: a drain must execute every admitted
// cancel before the lane may finish).
func (lw *laneWorker) backlogEmpty() bool {
	if lw.xfer.Len() > 0 || lw.control.Len() > 0 {
		return false
	}
	for _, sh := range lw.shards {
		if sh.r.Len() > 0 {
			return false
		}
	}
	return true
}

// ringsOccupied totals the lane's inbound ring occupancy (safe from any
// goroutine).
func (lw *laneWorker) ringsOccupied() int {
	n := lw.xfer.Len()
	for _, sh := range lw.shards {
		n += sh.r.Len()
	}
	return n
}

// aborted reports whether this lane's drain watchdog fired.
func (lw *laneWorker) aborted() bool {
	select {
	case <-lw.abort:
		return true
	default:
		return false
	}
}

// arrive registers this lane at the drain barrier (idempotent).
func (lw *laneWorker) arrive() {
	if !lw.arrived {
		lw.arrived = true
		lw.e.drainArrived.Add(1)
	}
}

// allocSlot assigns a payload slot to a submission (lane goroutine).
func (lw *laneWorker) allocSlot(it item) (int, bool) {
	if len(lw.free) == 0 {
		return 0, false
	}
	idx := lw.free[len(lw.free)-1]
	lw.free = lw.free[:len(lw.free)-1]
	lw.slots[idx] = slot{tag: it.tag, payload: it.payload, submitNs: it.submitNs, live: true}
	return idx, true
}

// releaseSlot frees a slot on extraction, returning its record. A dead
// or out-of-range index returns a zero slot: a recovery already
// reclaimed it, or the payload reference is damaged.
func (lw *laneWorker) releaseSlot(idx int) slot {
	if idx < 0 || idx >= len(lw.slots) || !lw.slots[idx].live {
		return slot{}
	}
	sl := lw.slots[idx]
	lw.slots[idx] = slot{}
	lw.free = append(lw.free, idx)
	return sl
}

// sweepOrphanSlots frees every still-live slot, returning the count for
// the caller to book (FaultLost always; DrainShed too when shedding).
// Only meaningful when the lane sorter is known empty: at that point a
// live slot is either a flushed sorter resident or the leftover of a
// ghost extraction whose duplicate payload reference released someone
// else's slot.
func (lw *laneWorker) sweepOrphanSlots() int {
	lost := 0
	for idx := range lw.slots {
		if lw.slots[idx].live {
			lw.slots[idx] = slot{}
			lw.free = append(lw.free, idx)
			lost++
		}
	}
	return lost
}

// updateMirror publishes the lane's modelled-hardware gauges.
func (lw *laneWorker) updateMirror() {
	lw.mirror.Store(&laneMirror{
		cycles: lw.ln.Fabric().Clock().Now(),
		fabric: metrics.FabricPressure(lw.ln.Fabric()),
	})
}

// laneLoop is lane i's datapath goroutine: ingest from the shard rings
// and transfer inbox, serve into the served ring, repair faults, honor
// drains. It exits on drain completion, per-lane or global drain abort,
// or a terminal error.
func (e *Engine) laneLoop(i int) {
	lw := e.lanes[i]
	defer e.laneWG.Done()
	defer func() {
		if r := recover(); r != nil {
			// Backstop containment: a panic escaping the guarded steps
			// (bookkeeping, not datapath work) goes terminal so producers,
			// the merge stage, and peer lanes unblock instead of
			// deadlocking. Bookkeeping only — no datapath calls here.
			e.fail(fmt.Errorf("engine: lane %d datapath panic: %v", i, r))
			lw.arrive()
			lw.doneFlag.Store(true)
			e.wakeMerge()
		}
	}()

	const mirrorEvery = 8
	lw.sinceMirror = mirrorEvery // force a mirror on the first pass
	draining := false
	drainIdle := 0
	for {
		worked, failed := false, false
		ops := 0

		// Chaos seam: injected actions run here, panic-contained, on the
		// goroutine that owns this lane's state. A failed (repaired)
		// action counts as a failed step so consecutive panics accumulate
		// against the streak budget.
		select {
		case fn := <-lw.inject:
			if err := e.guardAction(fn); err != nil {
				if term := e.handleLaneFailure(lw, "chaos", err); term != nil {
					e.fail(term)
					lw.laneExit()
					return
				}
				failed, worked = true, true
			}
		default:
		}
		if e.terminated() {
			lw.laneExit()
			return
		}
		select {
		case <-lw.probe:
			if e.quar[i].Load() && !draining {
				e.probeLane(lw)
				worked = true
			}
		default:
		}

		if e.quar[i].Load() {
			// Out of service: keep the inbound rings moving toward
			// healthy lanes so producers blocked on this lane unwedge.
			// Control requests still execute (as misses — the sorter was
			// flushed at quarantine time) so the control ring drains.
			if n, err := e.guardStep(func() (int, error) { return e.laneControl(lw) }); err != nil {
				if term := e.handleLaneFailure(lw, "control", err); term != nil {
					e.fail(term)
					lw.laneExit()
					return
				}
				failed, worked = true, true
			} else if n > 0 {
				worked = true
				ops += n
			}
			if n := e.laneForward(lw); n > 0 {
				worked = true
				ops += n
			}
		} else {
			if n, err := e.guardStep(func() (int, error) { return e.laneControl(lw) }); err != nil {
				if term := e.handleLaneFailure(lw, "control", err); term != nil {
					e.fail(term)
					lw.laneExit()
					return
				}
				failed, worked = true, true
			} else if n > 0 {
				worked = true
				ops += n
			}
			if n, err := e.guardStep(func() (int, error) { return e.laneIngest(lw) }); err != nil {
				if term := e.handleLaneFailure(lw, "ingest", err); term != nil {
					e.fail(term)
					lw.laneExit()
					return
				}
				failed, worked = true, true // a repair is progress
			} else if n > 0 {
				worked = true
				ops += n
			}
			if n, err := e.guardStep(func() (int, error) { return e.laneServe(lw) }); err != nil {
				if term := e.handleLaneFailure(lw, "extract", err); term != nil {
					e.fail(term)
					lw.laneExit()
					return
				}
				failed, worked = true, true
			} else if n > 0 {
				worked = true
				ops += n
			}
		}
		if !failed {
			lw.panicStreak = 0
		}
		if ops > 0 && e.cfg.RecoverFaults && !draining {
			for _, lane := range e.sup.OnOps(uint64(ops)) {
				e.routeProbe(lane)
			}
		}

		lw.sorterLen.Store(int64(lw.ln.Len()))
		if lw.sinceMirror++; worked && lw.sinceMirror >= mirrorEvery {
			lw.updateMirror()
			lw.sinceMirror = 0
		}
		if worked {
			lw.progress.Add(1)
			if !draining {
				select {
				case <-e.drainReq:
					draining = true
				default:
				}
			}
			drainIdle = 0
			continue
		}

		lw.idles.Add(1)
		lw.updateMirror()
		lw.sinceMirror = 0
		if draining {
			if e.drainAborted() || lw.aborted() {
				e.laneShed(lw)
				lw.laneExit()
				return
			}
			if lw.backlogEmpty() && lw.ln.Len() == 0 {
				e.laneFinish(lw)
				lw.laneExit()
				return
			}
			// Sorter non-empty with the served ring full: the merge stage
			// hasn't caught up. Yield and rescan.
			if drainIdle++; drainIdle%64 == 0 {
				time.Sleep(100 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		select {
		case <-lw.notify:
		case <-e.drainReq:
			draining = true
		case <-e.terminate:
			lw.laneExit()
			return
		}
	}
}

// laneIngest moves up to BatchSize backlog items into the lane sorter,
// bounded by sorter links and payload slots so a full lane
// backpressures instead of failing.
func (e *Engine) laneIngest(lw *laneWorker) (int, error) {
	n := 0
	for n < e.cfg.BatchSize && lw.ln.Len() < e.cfg.LaneCapacity && len(lw.free) > 0 {
		it, ok := lw.popOne()
		if !ok {
			break
		}
		if err := e.ingestOne(lw, it); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		lw.batches.Add(1)
		lw.batchedOps.Add(uint64(n))
		if m := int64(n); m > lw.maxBatch.Load() {
			lw.maxBatch.Store(m)
		}
		select {
		case lw.space <- struct{}{}:
		default:
		}
	}
	return n, nil
}

// ingestOne inserts one item into this lane's sorter. A lane always
// inserts into its own sorter — lane sorters accept the full tag range,
// so quarantine routing happens upstream (remapLane in Submit,
// laneForward on quarantined lanes) by choosing which lane's rings the
// item lands in; once an item is in a lane's backlog it never moves
// again. That guarantees the drain final sweep terminates: after the
// barrier no lane produces into another.
func (e *Engine) ingestOne(lw *laneWorker, it item) error {
	idx, ok := lw.allocSlot(it)
	if !ok {
		// Slot table exhausted (only possible after fault losses outran
		// reconciliation, or under heavy cross-lane forwarding): shed
		// accountably.
		if !it.accounted {
			lw.inserted.Add(1)
		}
		lw.faultLost.Add(1)
		e.redDepart(1)
		return nil
	}
	err := lw.ln.Insert(it.tag, idx)
	if !it.accounted {
		lw.inserted.Add(1)
	}
	if err != nil {
		// The slot stays live: the repair's reconciliation counts it in
		// FaultLost if the sorter lost the entry.
		return err
	}
	if sharded.InterleavedLane(it.tag, len(e.lanes)) != lw.idx {
		e.remapped.Add(1)
	}
	return nil
}

// laneControl executes up to BatchSize pending cancel/reweight requests
// against this lane's sorter (lane goroutine only). Each request is a
// charged circuit operation; a request whose target already departed
// executes as a counted miss.
func (e *Engine) laneControl(lw *laneWorker) (int, error) {
	n := 0
	for n < e.cfg.BatchSize {
		it, ok := lw.control.Pop()
		if !ok {
			break
		}
		n++
		var err error
		if it.op == opCancel {
			err = e.laneCancel(lw, it)
		} else {
			err = e.laneReweight(lw, it)
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// findSlot locates the live slot holding the oldest resident packet
// matching (tag, payload), or -1. The slot table is the authoritative
// record (quarantine evacuation trusts it over the sorter for the same
// reason), and slot indices are unique, so the (tag, slot) pair handed
// to the sorter identifies exactly one link even among duplicate
// user-level (tag, payload) submissions.
func (lw *laneWorker) findSlot(tag, payload int) int {
	best := -1
	for idx := range lw.slots {
		sl := &lw.slots[idx]
		if sl.live && sl.tag == tag && sl.payload == payload &&
			(best == -1 || sl.submitNs < lw.slots[best].submitNs) {
			best = idx
		}
	}
	return best
}

// laneCancel removes one resident packet: unlink from the lane sorter,
// release the payload slot, charge the Removed ledger. A corrupt-state
// error surfaces to the supervision layer like any datapath fault — a
// cancellation must never turn silent loss into "it was cancelled
// anyway".
func (e *Engine) laneCancel(lw *laneWorker, it item) error {
	idx := lw.findSlot(it.tag, it.payload)
	if idx < 0 {
		lw.cancelMisses.Add(1)
		return nil
	}
	found, err := lw.ln.Remove(it.tag, idx)
	if err != nil {
		return err
	}
	if !found {
		// Live slot without a sorter link: the entry is in flight toward
		// the served ring or awaiting fault reconciliation. The departure
		// wins the race.
		lw.cancelMisses.Add(1)
		return nil
	}
	lw.releaseSlot(idx)
	lw.removed.Add(1)
	e.redDepart(1)
	return nil
}

// laneReweight moves one resident packet to a new tag. When the new tag
// stays on this lane (or the engine is draining, when cross-lane
// forwarding can no longer be guaranteed a consumer) the lane sorter
// reranks in place; otherwise the packet is unlinked here and forwarded
// to its new home lane as an already-accounted item, exactly like a
// quarantine evacuee — the packet stays inside the conservation
// identity the whole way.
func (e *Engine) laneReweight(lw *laneWorker, it item) error {
	idx := lw.findSlot(it.tag, it.payload)
	if idx < 0 {
		lw.cancelMisses.Add(1)
		return nil
	}
	dest, ok := e.remapLane(it.newTag)
	if !ok || e.draining.Load() {
		dest = lw.idx
	}
	if dest == lw.idx {
		found, err := lw.ln.Rerank(it.tag, idx, it.newTag)
		if err != nil {
			return err
		}
		if !found {
			lw.cancelMisses.Add(1)
			return nil
		}
		lw.slots[idx].tag = it.newTag
		lw.reweights.Add(1)
		return nil
	}
	found, err := lw.ln.Remove(it.tag, idx)
	if err != nil {
		return err
	}
	if !found {
		lw.cancelMisses.Add(1)
		return nil
	}
	sl := lw.releaseSlot(idx)
	fwd := item{tag: it.newTag, payload: sl.payload, submitNs: sl.submitNs, accounted: true}
	if !e.forwardTo(e.lanes[dest], fwd) && !e.forwardHealthy(lw, fwd) {
		// No lane can take it: shed accountably (already inserted).
		lw.faultLost.Add(1)
		e.redDepart(1)
		return nil
	}
	lw.reweights.Add(1)
	return nil
}

// laneServe extracts up to BatchSize entries from the lane sorter into
// the served ring (a full ring is the merge stage's backpressure).
// Extraction is counted when the merge stage delivers, so the in-flight
// served entries stay visible to the conservation identity as
// ServedOccupied.
func (e *Engine) laneServe(lw *laneWorker) (int, error) {
	n := 0
	pushed := 0
	for n < e.cfg.BatchSize && lw.ln.Len() > 0 && lw.served.Len() < lw.served.Cap() {
		if e.drainAborted() || lw.aborted() {
			break
		}
		entry, err := lw.ln.ExtractMin()
		if err != nil {
			if errors.Is(err, taglist.ErrEmpty) {
				break
			}
			return n, err
		}
		n++
		sl := lw.releaseSlot(entry.Payload)
		if !sl.live {
			// Ghost entry: its payload no longer maps to a live slot — a
			// corrupted payload field made two entries reference one slot,
			// or a recovery already reclaimed it. The packet it belonged
			// to is (or will be) accounted as FaultLost when its orphaned
			// slot reconciles, so emitting the ghost would double-count an
			// extraction. Drop it; it still counts as an op.
			lw.ghostDrops.Add(1)
			continue
		}
		// The Len() < Cap() guard above guarantees this push succeeds:
		// the lane goroutine is the ring's only producer.
		lw.served.Push(outEntry{tag: sl.tag, payload: sl.payload, submitNs: sl.submitNs})
		pushed++
	}
	if pushed > 0 {
		e.wakeMerge()
	}
	return n, nil
}

// laneForward moves a quarantined lane's inbound backlog onto healthy
// lanes (the lane's sorter is already flushed; only its rings keep
// receiving until producers observe the quarantine flag).
func (e *Engine) laneForward(lw *laneWorker) int {
	n := 0
	for n < e.cfg.BatchSize {
		it, ok := lw.popOne()
		if !ok {
			break
		}
		if !e.forwardHealthy(lw, it) {
			// No healthy lane can take it: shed accountably.
			if !it.accounted {
				lw.inserted.Add(1)
			}
			lw.faultLost.Add(1)
			e.redDepart(1)
		}
		n++
	}
	return n
}

// forwardTo pushes one item into dest's transfer inbox (multi-producer
// side: serialized on xferMu).
func (e *Engine) forwardTo(dest *laneWorker, it item) bool {
	if dest.doneFlag.Load() {
		return false // dest already exited; nobody would drain it
	}
	dest.xferMu.Lock()
	ok := dest.xfer.Push(it)
	dest.xferMu.Unlock()
	if ok {
		dest.wake()
	}
	return ok
}

// forwardHealthy routes one item to its healthy home lane, falling back
// to any healthy lane (degraded interleaving beats a lost packet).
func (e *Engine) forwardHealthy(lw *laneWorker, it item) bool {
	if home, ok := e.remapLane(it.tag); ok && home != lw.idx {
		if e.forwardTo(e.lanes[home], it) {
			return true
		}
	}
	for d := 1; d < len(e.lanes); d++ {
		h := (lw.idx + d) % len(e.lanes)
		if e.quar[h].Load() {
			continue
		}
		if e.forwardTo(e.lanes[h], it) {
			return true
		}
	}
	return false
}

// handleLaneFailure applies the supervision policy to a lane datapath
// error. A nil return means the lane repaired its state and the loop
// may continue; non-nil is terminal for the whole engine.
func (e *Engine) handleLaneFailure(lw *laneWorker, op string, err error) error {
	isPanic := errors.Is(err, errDatapathPanic)
	if isPanic {
		lw.panics.Add(1)
		lw.panicStreak++
	}
	if !e.cfg.RecoverFaults || (!errors.Is(err, core.ErrCorrupt) && !isPanic) {
		return fmt.Errorf("engine: lane %d %s: %w", lw.idx, op, err)
	}
	if isPanic && lw.panicStreak > e.cfg.Supervision.MaxRetries {
		return fmt.Errorf("engine: lane %d %s: %d consecutive datapath panics exhaust the retry budget: %w",
			lw.idx, op, lw.panicStreak, err)
	}
	if rerr := e.laneRepair(lw); rerr != nil {
		return fmt.Errorf("engine: lane %d %s: %w (repair failed: %v)", lw.idx, op, err, rerr)
	}
	lw.recoveries.Add(1)
	return nil
}

// laneRepair is this lane's fault-domain recovery pass: audit the lane,
// drive the supervisor's bounded retry-with-backoff rebuild if dirty,
// quarantine (evacuating survivors) if the supervisor gives up, then
// reconcile the slot table so every unrecoverable packet is counted.
// It touches only lane state this goroutine owns — peer lanes repair
// themselves.
func (e *Engine) laneRepair(lw *laneWorker) error {
	if !e.quar[lw.idx].Load() {
		if rep := lw.ln.Audit(); rep.Err() != nil {
			out := e.sup.Repair(lw.idx, func(int) error {
				if err := lw.ln.Rebuild(); err != nil {
					return err
				}
				if rep := lw.ln.Audit(); rep.Err() != nil {
					return rep.Err()
				}
				return nil
			})
			if out.Quarantined {
				e.quarantineLane(lw)
			}
		}
	}
	if e.healthyLanes() == 0 {
		return errors.New("all lanes quarantined, nothing can serve")
	}
	return e.reconcileLane(lw)
}

// quarantineLane takes this lane out of service: surviving entries are
// evacuated through healthy lanes' transfer inboxes (their slot records
// carry the authoritative tag, so a corrupt sorter tag cannot misroute
// them), the lane is flushed, and the quarantine flag makes Submit and
// peer forwarding route its tag slice elsewhere until a reinstate probe
// succeeds. Unreadable entries are left for the slot reconciliation to
// count as FaultLost.
func (e *Engine) quarantineLane(lw *laneWorker) {
	e.quar[lw.idx].Store(true)
	snap, err := lw.ln.Snapshot()
	lw.ln.Flush()
	if err != nil {
		snap = nil
	}
	moved := 0
	for _, en := range snap {
		sl := lw.releaseSlot(en.Payload)
		if !sl.live {
			continue // ghost reference; the real packet reconciles as lost
		}
		it := item{tag: sl.tag, payload: sl.payload, submitNs: sl.submitNs, accounted: true}
		if e.forwardHealthy(lw, it) {
			moved++
		} else {
			lw.faultLost.Add(1)
			e.redDepart(1)
		}
	}
	if moved > 0 {
		lw.evacuated.Add(uint64(moved))
	}
}

// probeLane answers a supervisor reinstate offer on this (flushed,
// quarantined) lane: rebuild and audit; a clean result returns it to
// service, a dirty one re-quarantines it with a doubled probe delay.
func (e *Engine) probeLane(lw *laneWorker) {
	err := lw.ln.Rebuild()
	if err == nil {
		if rep := lw.ln.Audit(); rep.Err() != nil {
			err = rep.Err()
		}
	}
	if err != nil {
		e.sup.Requarantine(lw.idx)
		return
	}
	e.quar[lw.idx].Store(false)
	e.sup.Reinstate(lw.idx)
}

// routeProbe offers a reinstate probe to the target lane's goroutine
// (the supervisor schedule may fire on any lane's op count, but only
// the owning goroutine may touch the quarantined lane's fabric).
func (e *Engine) routeProbe(lane int) {
	lw := e.lanes[lane]
	select {
	case lw.probe <- struct{}{}:
	default:
	}
	lw.wake()
}

// reconcileLane rebuilds this lane's slot free list from the sorter's
// surviving entries: slots no longer referenced by any live entry are
// freed and counted in FaultLost, closing the conservation invariant
// after a recovery.
func (e *Engine) reconcileLane(lw *laneWorker) error {
	snap, err := lw.ln.Snapshot()
	if err != nil {
		return fmt.Errorf("engine: lane %d reconcile: %w", lw.idx, err)
	}
	liveNow := make(map[int]bool, len(snap))
	for _, en := range snap {
		liveNow[en.Payload] = true
	}
	lost := 0
	for idx := range lw.slots {
		if lw.slots[idx].live && !liveNow[idx] {
			lw.slots[idx] = slot{}
			lw.free = append(lw.free, idx)
			lost++
		}
	}
	if lost > 0 {
		lw.faultLost.Add(uint64(lost))
		e.redDepart(lost)
	}
	return nil
}

// laneShed closes out this lane's aborted drain: ring and inbox items
// are counted inserted-then-lost (so Submitted == Inserted survives),
// the sorter is flushed, and the orphan sweep counts the residents —
// healthy peers keep draining untouched.
func (e *Engine) laneShed(lw *laneWorker) {
	shed := 0
	for {
		it, ok := lw.popOne()
		if !ok {
			break
		}
		if !it.accounted {
			lw.inserted.Add(1)
		}
		shed++
	}
	lw.ln.Flush()
	lost := shed + lw.sweepOrphanSlots()
	if lost > 0 {
		lw.faultLost.Add(uint64(lost))
		lw.drainShed.Add(uint64(lost))
		e.redDepart(lost)
	}
	e.failSoft(fmt.Errorf("engine: lane %d drain aborted by watchdog after %v without progress: backlog shed (accounted in FaultLost)",
		lw.idx, e.cfg.DrainTimeout))
}

// laneFinish completes this lane's graceful drain. The lane arrives at
// the drain barrier with an empty backlog and sorter, spins until every
// lane has arrived (after which no lane can forward into this one), and
// then runs one final sweep for items that raced in just before the
// barrier. Progress guarantee: arrivals are monotone, quarantined lanes
// forward only while their backlog is non-empty, and forwarding to an
// exited lane is refused — so the sweep's work is finite and the loop
// exits.
func (e *Engine) laneFinish(lw *laneWorker) {
	lw.arrive()
	want := int32(e.cfg.Lanes)
	spin := 0
	for e.drainArrived.Load() < want {
		if e.terminated() {
			return
		}
		if e.drainAborted() || lw.aborted() {
			e.laneShed(lw)
			return
		}
		if spin++; spin%64 == 0 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	spin = 0
	for {
		if e.terminated() {
			return
		}
		if e.drainAborted() || lw.aborted() {
			e.laneShed(lw)
			return
		}
		worked := 0
		if e.quar[lw.idx].Load() {
			n, err := e.guardStep(func() (int, error) { return e.laneControl(lw) })
			if err != nil {
				if term := e.handleLaneFailure(lw, "drain-control", err); term != nil {
					e.fail(term)
					return
				}
				worked++
			}
			worked += n
			worked += e.laneForward(lw)
		} else {
			n, err := e.guardStep(func() (int, error) { return e.laneControl(lw) })
			if err != nil {
				if term := e.handleLaneFailure(lw, "drain-control", err); term != nil {
					e.fail(term)
					return
				}
				worked++
			}
			worked += n
			n, err = e.guardStep(func() (int, error) { return e.laneIngest(lw) })
			if err != nil {
				if term := e.handleLaneFailure(lw, "drain-ingest", err); term != nil {
					e.fail(term)
					return
				}
				worked++
			}
			worked += n
			n, err = e.guardStep(func() (int, error) { return e.laneServe(lw) })
			if err != nil {
				if term := e.handleLaneFailure(lw, "drain-extract", err); term != nil {
					e.fail(term)
					return
				}
				worked++
			}
			worked += n
		}
		// Keep the sorter gauge live: items ingested from post-barrier
		// forwards must stay visible to the watchdog's backlog check and
		// the merge stage's pending-hold check, or a lane wedged here can
		// neither be drain-aborted nor held for.
		lw.sorterLen.Store(int64(lw.ln.Len()))
		if worked > 0 {
			lw.progress.Add(1)
			spin = 0
			continue
		}
		if lw.backlogEmpty() && lw.ln.Len() == 0 {
			break
		}
		// Sorter non-empty, served ring full: wait for the merge stage.
		if spin++; spin%64 == 0 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	// The sorter is empty: any still-live slot is an orphan left behind
	// by a ghost extraction; count it so conservation closes.
	if lost := lw.sweepOrphanSlots(); lost > 0 {
		lw.faultLost.Add(uint64(lost))
		e.redDepart(lost)
	}
}

// laneExit publishes the lane's terminal state and signals the merge
// stage. Every lane exit path funnels through here so the drain
// barrier, the merge exit condition, and the stats mirror all settle.
func (lw *laneWorker) laneExit() {
	lw.arrive()
	lw.sorterLen.Store(int64(lw.ln.Len()))
	lw.updateMirror()
	lw.doneFlag.Store(true)
	lw.e.wakeMerge()
}
