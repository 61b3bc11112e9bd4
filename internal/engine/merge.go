// Tag-order merge: a dedicated goroutine combines the per-lane served
// rings through a sharded.WinnerTree (the software analogue of the
// paper's select-tree fan-in; the merge goroutine is its single writer)
// and delivers to the Served channel in global tag order. Equal tags
// serve in lane order.
//
// Progress guarantee (DESIGN.md §14): delivery waits for a lane with an
// empty served ring only while that lane verifiably has work in flight
// (backlog or sorter occupancy) and is alive, and only for a bounded
// wall-clock hold. The wait is parked on the lanes' doorbell, which a
// lane rings after every served push, so a hold costs no CPU; past the
// hold the merge proceeds with the best visible head and counts the
// relaxation in Stats.MergeForced. A wedged consumer is the merge
// stage's own fault domain: the drain watchdog aborts delivery, the
// remainder is shed accountably, and the lanes' drains finish
// regardless.
//
//wfqlint:ignore-file determinism the merge stage is wall-clock serving code, not simulation (DESIGN.md §11)
package engine

import (
	"fmt"
	"runtime"
	"time"

	"wfqsort/internal/sharded"
)

// mergeHold bounds how long one delivery waits on a lane that has work
// in flight but no visible head before proceeding without it (counted
// in Stats.MergeForced). It is armed once per delivery.
const mergeHold = time.Millisecond

// mergeLoop is the merge goroutine: the consumer of every lane's served
// ring, the sole sender on the Served channel, and the engine's final
// authority on shutdown — it exits only after every lane goroutine has,
// sweeps whatever they left behind into the ledger, and then closes the
// output.
func (e *Engine) mergeLoop() {
	hold := time.NewTimer(mergeHold)
	hold.Stop()
	defer func() {
		hold.Stop()
		e.laneWG.Wait()
		e.finalSweep()
		close(e.out)
		close(e.done)
	}()
	tree := sharded.NewWinnerTree(len(e.lanes))
	heads := make([]outEntry, len(e.lanes))
	valid := make([]bool, len(e.lanes))
	aborted := false
	// holding: this delivery's hold is armed; expired: it fired, so the
	// delivery proceeds without the pending lane.
	holding, expired := false, false
	for {
		if e.terminated() {
			return
		}
		if !aborted && e.drainAborted() {
			aborted = true
			e.failSoft(fmt.Errorf("engine: drain aborted by watchdog after %v without progress: remainder shed (accounted in FaultLost)",
				e.cfg.DrainTimeout))
		}
		// Refresh invalid heads from the served rings (Peek leaves the
		// entry in place: the ring slot is released only on delivery, so
		// ServedOccupied stays truthful for the watchdog and stats).
		for i, lw := range e.lanes {
			if !valid[i] {
				if en, ok := lw.served.Peek(); ok {
					heads[i] = en
					valid[i] = true
					tree.Set(i, en.tag)
				}
			}
		}

		if aborted {
			// Shed everything visible; lanes shed their own backlog. Exit
			// once every lane has and the rings are dry.
			shed := 0
			for i, lw := range e.lanes {
				if !valid[i] {
					continue
				}
				lw.served.Advance()
				valid[i] = false
				tree.Clear(i)
				lw.faultLost.Add(1)
				lw.drainShed.Add(1)
				shed++
				lw.wake()
			}
			if shed > 0 {
				e.redDepart(shed)
				e.mergeProgress.Add(uint64(shed))
				continue
			}
			if e.allLanesDone() {
				return
			}
			runtime.Gosched()
			continue
		}

		best := tree.Min()
		if best < 0 {
			if e.allLanesDone() {
				// doneFlag is stored after a lane's last served push
				// (laneExit), so done-then-empty is race-free — but the
				// empty Peek above may predate both. Re-check the rings
				// AFTER observing done: only a still-dry ring set proves a
				// clean drain; otherwise loop to deliver the stragglers
				// instead of letting finalSweep shed them as FaultLost.
				if e.servedOccupied() == 0 {
					return // clean drain: every lane exited, every ring is dry
				}
				continue
			}
			select {
			case <-e.mergeWake:
			case <-e.abortDrain:
			case <-e.terminate:
			case <-time.After(200 * time.Microsecond):
			}
			continue
		}

		// Hold for a lane that could still publish a smaller tag: alive,
		// in service, demonstrably holding work, but with nothing visible
		// yet. Bounded — a wedged lane must not wedge the merge.
		pending := false
		for j, lw := range e.lanes {
			if valid[j] || lw.doneFlag.Load() || e.quar[j].Load() {
				continue
			}
			if lw.sorterLen.Load() > 0 || lw.ringsOccupied() > 0 {
				pending = true
				break
			}
		}
		if pending && !expired {
			// Park until a lane serves (its doorbell), the drain aborts,
			// the engine terminates, or the hold runs out.
			if !holding {
				hold.Reset(mergeHold)
				holding = true
			}
			select {
			case <-e.mergeWake:
			case <-e.abortDrain:
			case <-e.terminate:
			case <-hold.C:
				expired = true
			}
			continue
		}
		if pending {
			e.mergeForced.Add(1)
		}
		// Re-arm the hold whether the delivery was forced or not: each
		// delivery gets its own bounded hold window, so one expired hold
		// relaxes order for one delivery, not the whole episode.
		if holding && !expired && !hold.Stop() {
			<-hold.C // fired unobserved: drain before the next Reset
		}
		holding, expired = false, false

		lw := e.lanes[best]
		en := heads[best]
		lw.served.Advance()
		valid[best] = false
		tree.Clear(best)
		lw.wake() // served-ring space: the lane can serve again
		lat := time.Duration(time.Now().UnixNano() - en.submitNs)
		s := Served{Tag: en.tag, Payload: en.payload, Latency: lat}
		sent := true
		select {
		case e.out <- s:
		default:
			// The Served buffer is full: park in the send, visible to the
			// drain watchdog as a blocked delivery.
			e.mergeBlocked.Store(true)
			select {
			case e.out <- s:
			case <-e.abortDrain:
				sent = false
			case <-e.terminate:
				e.mergeBlocked.Store(false)
				lw.faultLost.Add(1)
				e.redDepart(1)
				return
			}
			e.mergeBlocked.Store(false)
		}
		if sent {
			lw.extracted.Add(1)
			e.recordLatency(int64(lat))
		} else {
			// The drain watchdog fired while this delivery was wedged:
			// shed it accountably; the abort branch above sheds the rest.
			lw.faultLost.Add(1)
			lw.drainShed.Add(1)
		}
		e.redDepart(1)
		e.mergeProgress.Add(1)
	}
}

// finalSweep runs after every lane goroutine has exited (single-
// threaded by construction): any item left in a shard ring, transfer
// inbox, or served ring — racers against a terminal exit or an aborted
// drain — is counted into the owning lane's ledger so the conservation
// identity closes no matter how the engine went down.
func (e *Engine) finalSweep() {
	for _, lw := range e.lanes {
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
		for {
			if _, ok := lw.served.Pop(); !ok {
				break
			}
			shed++
		}
		if shed > 0 {
			lw.faultLost.Add(uint64(shed))
			lw.drainShed.Add(uint64(shed))
			e.redDepart(shed)
		}
	}
}
