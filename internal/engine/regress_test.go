package engine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCleanDrainDeliversStraggler pins the merge-exit fix: when every
// lane has exited, the merge must re-check the served rings before
// declaring a clean drain, so a straggler entry published between the
// empty scan and the done flags is delivered instead of shed as
// FaultLost by the final sweep. The race window is narrow, so the test
// loops the whole lifecycle and requires exact conservation every time.
func TestCleanDrainDeliversStraggler(t *testing.T) {
	const iters, n = 40, 200
	for it := 0; it < iters; it++ {
		e, err := New(Config{Lanes: 4, LaneCapacity: 256, RingSize: 64, BatchSize: 8, OutBuffer: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		var served []Served
		var wg sync.WaitGroup
		drainAll(t, e, &served, &wg)
		for i := 0; i < n; i++ {
			if _, err := e.Submit(i%e.TagRange(), i); err != nil {
				t.Fatalf("iter %d: submit %d: %v", it, i, err)
			}
		}
		if err := e.Stop(); err != nil {
			t.Fatalf("iter %d: stop: %v", it, err)
		}
		wg.Wait()
		st := e.StatsSnapshot()
		checkConservation(t, st)
		if st.FaultLost != 0 {
			t.Fatalf("iter %d: clean drain shed %d packets as FaultLost", it, st.FaultLost)
		}
		if st.Extracted != n || len(served) != n {
			t.Fatalf("iter %d: extracted %d, delivered %d, want %d", it, st.Extracted, len(served), n)
		}
	}
}

// TestSubmitErrStoppedAfterTerminalFailure pins the terminal-failure
// contract: with fault recovery off, a datapath panic kills the engine,
// and Submit must start returning ErrStopped (not hang, not admit into
// a dead datapath).
func TestSubmitErrStoppedAfterTerminalFailure(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 256, RingSize: 64, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	for i := 0; i < 16; i++ {
		if _, err := e.Submit(i%e.TagRange(), i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := e.InjectLane(0, func() { panic("regress: terminal datapath failure") }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Submit to return ErrStopped", func() bool {
		_, err := e.Submit(0, 0)
		return errors.Is(err, ErrStopped)
	})
	if err := e.Stop(); err == nil {
		t.Fatal("Stop returned nil after an unrecovered datapath panic")
	}
	wg.Wait()
	if st := e.StatsSnapshot(); st.Health != "failed" {
		t.Fatalf("health %q after terminal failure, want failed", st.Health)
	}
}

// TestMergeForcedBoundedHold drives the merge's bounded-hold path: lane
// 1 is wedged with its backlog visible in the submission rings, so the
// merge sees it pending while lane 0 keeps publishing. Each delivery
// must exhaust its own hold budget and then proceed (MergeForced
// increments per forced delivery because the spin budget resets), and
// once the wedge clears the drain must conserve every packet.
func TestMergeForcedBoundedHold(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 256, RingSize: 64, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)

	// Wedge lane 1's datapath, then park its traffic in the shard rings
	// (interleaved partition: odd tags → lane 1) so ringsOccupied keeps
	// the lane pending in the merge's eyes.
	if err := e.InjectLane(1, func() { time.Sleep(300 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	const perLane = 20
	for i := 0; i < perLane; i++ {
		if _, err := e.Submit(2*i+1, perLane+i); err != nil {
			t.Fatalf("lane-1 submit %d: %v", i, err)
		}
	}
	for i := 0; i < perLane; i++ {
		if _, err := e.Submit(2*i, i); err != nil {
			t.Fatalf("lane-0 submit %d: %v", i, err)
		}
	}
	// Lane 0's deliveries each face the pending lane 1: at least two
	// must be forced through separate exhausted hold budgets.
	waitFor(t, "forced merge deliveries", func() bool {
		return e.StatsSnapshot().MergeForced >= 2
	})
	if err := e.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	wg.Wait()
	st := e.StatsSnapshot()
	checkConservation(t, st)
	if st.FaultLost != 0 {
		t.Fatalf("bounded hold shed %d packets", st.FaultLost)
	}
	if len(served) != 2*perLane {
		t.Fatalf("delivered %d of %d", len(served), 2*perLane)
	}
	if st.MergeForced < 2 {
		t.Fatalf("MergeForced = %d, want >= 2 (budget must re-arm per delivery)", st.MergeForced)
	}
}

// TestMergeHoldWallClockBound bounds the merge's hold in wall time:
// with lane 1 wedged for 300 ms and its backlog visible, every lane-0
// delivery waits at most one hold (about a millisecond) for lane 1, so
// all of lane 0's packets arrive long before the wedge clears. A hold
// that waited on lane 1 until it served would deliver nothing for
// 300 ms.
func TestMergeHoldWallClockBound(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 256, RingSize: 64, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const perLane = 20
	var served []Served
	lane0Done := make(chan time.Time, 1)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		lane0 := 0
		for s := range e.Served() {
			served = append(served, s)
			if s.Payload < perLane {
				if lane0++; lane0 == perLane {
					lane0Done <- time.Now()
				}
			}
		}
	}()

	wedged := make(chan struct{})
	if err := e.InjectLane(1, func() {
		close(wedged)
		time.Sleep(300 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	<-wedged
	t0 := time.Now()
	// Interleaved partition: odd tags go to lane 1, even tags to lane 0.
	for i := 0; i < perLane; i++ {
		if _, err := e.Submit(2*i+1, perLane+i); err != nil {
			t.Fatalf("lane-1 submit %d: %v", i, err)
		}
	}
	for i := 0; i < perLane; i++ {
		if _, err := e.Submit(2*i, i); err != nil {
			t.Fatalf("lane-0 submit %d: %v", i, err)
		}
	}
	select {
	case at := <-lane0Done:
		if d := at.Sub(t0); d >= 250*time.Millisecond {
			t.Fatalf("lane 0's %d packets took %v behind a wedged lane, want < 250ms", perLane, d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lane 0's packets were never all delivered")
	}
	if err := e.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	<-consumed
	st := e.StatsSnapshot()
	checkConservation(t, st)
	if st.FaultLost != 0 {
		t.Fatalf("bounded hold shed %d packets", st.FaultLost)
	}
	if len(served) != 2*perLane {
		t.Fatalf("delivered %d of %d", len(served), 2*perLane)
	}
}
