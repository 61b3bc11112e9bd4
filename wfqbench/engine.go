package main

import (
	"fmt"
	"math/rand"
	"time"

	"wfqsort"
)

// Engine workloads: one client goroutine keeps cfg.Outstanding packets
// in flight through a 2-lane engine and submits a new one each time one
// is served (closed loop). Latency is measured by the client from its
// Submit call to receipt on Served; the engine's own latency reservoir
// is not used.

const (
	engineLanes  = 2
	setupBatch   = 10      // engines built back to back per set-up sample
	engineTags   = 1 << 20 // pre-drawn tag sequence, reused cyclically
	slotBits     = 16      // in-flight bookkeeping ring
	slotMask     = 1<<slotBits - 1
	ringSampleNs = int64(20 * time.Millisecond)
)

// bellTags draws n Fig. 6 bell-profile tags over [0, tagRange): a
// truncated normal centred mid-range with sigma = range/6.
func bellTags(seed int64, tagRange, n int) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	span := float64(tagRange - 1)
	tags := make([]uint16, n)
	for i := range tags {
		x := 0.5 + rng.NormFloat64()/6
		for x < 0 || x > 1 {
			x = 0.5 + rng.NormFloat64()/6
		}
		tags[i] = uint16(x*span + 0.5)
	}
	return tags
}

// setupEngines times engine set-up: cfg.Setups batches of
// setupBatch engines are built and started back to back, and each
// batch yields its wall time per engine, so the allocation and GC work
// one set-up causes is charged to it. setup_s is the median over the
// batches and sorter_heap_mb the median live heap per engine. The last
// engine built is returned running; the others are stopped.
func setupEngines(cfg config, rep *report) (*wfqsort.Engine, error) {
	var heap []float64
	var last *wfqsort.Engine
	for b := 0; b < cfg.Setups; b++ {
		if last != nil {
			if err := stopAll([]*wfqsort.Engine{last}); err != nil {
				return nil, fmt.Errorf("stop set-up engine: %w", err)
			}
		}
		before := liveHeapMiB()
		batch := make([]*wfqsort.Engine, 0, setupBatch)
		clk := newClock()
		for i := 0; i < setupBatch; i++ {
			e, err := wfqsort.NewEngine(wfqsort.EngineConfig{Lanes: engineLanes})
			if err == nil {
				err = e.Start()
			}
			if err != nil {
				_ = stopAll(batch) // best effort: set-up already failed
				return nil, err
			}
			batch = append(batch, e)
		}
		rep.Setups = append(rep.Setups, clk.seconds()/setupBatch)
		heap = append(heap, (liveHeapMiB()-before)/setupBatch)
		last = batch[setupBatch-1]
		if err := stopAll(batch[:setupBatch-1]); err != nil {
			_ = stopAll([]*wfqsort.Engine{last}) // best effort: set-up already failed
			return nil, fmt.Errorf("stop set-up engines: %w", err)
		}
	}
	rep.setE2E("setup_s", median(rep.Setups))
	rep.setE2E("sorter_heap_mb", median(heap))
	return last, nil
}

// stopAll stops engines nothing was submitted to and waits for each
// Served channel to close.
func stopAll(engines []*wfqsort.Engine) error {
	var first error
	for _, e := range engines {
		if err := e.Stop(); err != nil && first == nil {
			first = err
		}
		for range e.Served() {
		}
	}
	return first
}

func runEngine(cfg config) (*report, error) {
	rep := newReport(cfg)
	e, err := setupEngines(cfg, rep)
	if err != nil {
		return nil, err
	}

	tags := bellTags(cfg.Seed, e.TagRange(), engineTags)
	if cfg.Trace {
		rep.spans = newTracer(cfg.SpanEvery)
	}
	c := newClient(e, tags, cfg, rep.spans)
	if err := c.run(); err != nil {
		_ = e.Stop() // best effort: the run already failed
		return nil, err
	}
	rep.Attempted = c.submitted
	rep.FailedOps = c.refused + c.unexpected
	rep.Host.StealFrac = stealSince(c.cpu0, c.cpu1)

	// Gates: the engine drains cleanly, nothing is left over, and its
	// ledger closes.
	stopErr := e.Stop()
	extra := 0
	for range e.Served() {
		extra++
	}
	st := e.StatsSnapshot()
	rep.check("engine-stop", stopErr == nil, "Stop: %v", stopErr)
	rep.check("conservation", st.ConservationCheck() == nil, "%v", st.ConservationCheck())
	rep.check("exactly-once", c.unexpected == 0 && extra == 0 && c.received == c.submitted,
		"submitted %d, received %d, unexpected %d, after stop %d", c.submitted, c.received, c.unexpected, extra)
	rep.check("no-drops", st.DropsRing+st.DropsRED == 0 && c.refused == 0 && st.FaultLost == 0,
		"ring drops %d, RED drops %d, refused %d, fault-lost %d", st.DropsRing, st.DropsRED, c.refused, st.FaultLost)
	rep.check("ledger", st.Submitted == uint64(c.submitted) && st.Extracted == uint64(c.received),
		"engine submitted %d, extracted %d", st.Submitted, st.Extracted)

	w := c.win
	rep.setE2E("rtt_p50_us", w.lat.quantile(0.50, 1e3))
	rep.setE2E("rtt_p90_us", w.lat.quantile(0.90, 1e3))
	rep.setE2E("served_per_s", w.rate(w.served))
	rep.setE2E("ops_per_s", w.rate(w.ops))
	sorterOps := float64(st.Inserted + st.Extracted)
	rep.setE2E("modeled_cycles_per_op", float64(st.SumLaneCycles)/sorterOps)
	rep.Windows = map[string][]float64{
		"rtt_p50_us":   w.lat.perWindow(0.50, 1e3),
		"rtt_p90_us":   w.lat.perWindow(0.90, 1e3),
		"rtt_p99_us":   w.lat.perWindow(0.99, 1e3),
		"served_per_s": w.perSecond(w.served),
	}

	if cfg.Trace {
		pkts := float64(st.Extracted)
		rep.setLayer("engine.submit_ns.p50", c.submitNs.quantile(0.50, 1))
		rep.setLayer("engine.submit_ns.p99", c.submitNs.quantile(0.99, 1))
		rep.setLayer("engine.serve_wait_us.p50", c.waitNs.quantile(0.50, 1e3))
		rep.setLayer("engine.serve_wait_us.p99", c.waitNs.quantile(0.99, 1e3))
		rep.setLayer("engine.avg_batch", float64(st.BatchedOps)/float64(st.Batches))
		rep.setLayer("engine.idle_polls_per_pkt", float64(st.DatapathIdles)/pkts)
		rep.setLayer("engine.merge_forced_per_pkt", float64(st.MergeForced)/pkts)
		rep.setLayer("ring.occupancy_mean", float64(c.ringSum)/float64(c.ringSamples))
		rep.setLayer("sharded.lane_imbalance", st.LaneLoad.Imbalance)
		rep.setLayer("membus.modeled_cycles_per_pkt", float64(st.SumLaneCycles)/pkts)
		var stall, table, list uint64
		for _, lane := range st.FabricLanes {
			for _, r := range lane.Regions {
				stall += r.StallCycles
				switch r.Region {
				case "translation-table":
					table += r.Accesses
				case "tag-storage":
					list += r.Accesses
				}
			}
		}
		rep.setLayer("membus.stall_frac", float64(stall)/float64(st.SumLaneCycles))
		rep.setLayer("transtable.accesses_per_op", float64(table)/sorterOps)
		rep.setLayer("taglist.accesses_per_op", float64(list)/sorterOps)
	}
	return rep, nil
}

// client is the single load goroutine's state. In-flight bookkeeping is
// a ring indexed by payload & slotMask: owner holds the payload in
// flight in a slot (-1 when free), so a receipt whose slot does not
// hold its payload is a duplicate or an unknown packet.
type client struct {
	e    *wfqsort.Engine
	tags []uint16
	cfg  config
	clk  clock
	win  *windows
	tr   *tracer

	owner    []int64
	startNs  []int64 // Submit call time
	endNs    []int64 // traced: Submit return time
	submitNs series  // traced: Submit call durations
	waitNs   series  // traced: Submit return to receipt

	submitted, received, refused, unexpected int64
	ringSum, ringSamples, nextRingSample     int64
	cpu0, cpu1                               cpuTimes
}

func newClient(e *wfqsort.Engine, tags []uint16, cfg config, tr *tracer) *client {
	c := &client{
		e:       e,
		tags:    tags,
		cfg:     cfg,
		tr:      tr,
		owner:   make([]int64, 1<<slotBits),
		startNs: make([]int64, 1<<slotBits),
	}
	for i := range c.owner {
		c.owner[i] = -1
	}
	if cfg.Trace {
		c.endNs = make([]int64, 1<<slotBits)
		c.submitNs = newSeries(cfg.Windows)
		c.waitNs = newSeries(cfg.Windows)
	}
	return c
}

// submit sends packet id, stamping its start time.
func (c *client) submit(id int64, start int64) error {
	slot := id & slotMask
	if c.owner[slot] != -1 {
		return fmt.Errorf("packet %d still in flight after %d newer submissions", c.owner[slot], slotMask)
	}
	c.owner[slot] = id
	c.startNs[slot] = start
	ok, err := c.e.Submit(int(c.tags[id%engineTags]), int(id))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	c.submitted++
	if !ok {
		c.refused++
		c.owner[slot] = -1
		return nil
	}
	if c.cfg.Trace {
		c.endNs[slot] = c.clk.now()
	}
	return nil
}

func (c *client) run() error {
	c.clk = newClock()
	c.win = newWindows(int64(c.cfg.Warmup), c.cfg.Duration, c.cfg.Windows)
	end := c.win.end()
	served := c.e.Served()

	var next int64
	for ; next < int64(c.cfg.Outstanding); next++ {
		if err := c.submit(next, c.clk.now()); err != nil {
			return err
		}
	}
	measuring := false
	for receipts := int64(0); receipts < c.submitted-c.refused; receipts++ {
		r, ok := <-served
		if !ok {
			return fmt.Errorf("served channel closed with %d packets in flight", c.submitted-c.refused-receipts)
		}
		now := c.clk.now()
		w := c.win.index(now)
		c.receive(r.Payload, now, w)
		if w >= 0 && !measuring {
			measuring = true
			c.cpu0 = readCPUTimes()
		}
		if now >= end {
			if measuring {
				measuring = false
				c.cpu1 = readCPUTimes()
			}
			continue // stop submitting; drain what is in flight
		}
		if c.cfg.Trace && now >= c.nextRingSample {
			c.ringSum += int64(c.e.StatsSnapshot().RingOccupied)
			c.ringSamples++
			c.nextRingSample = now + ringSampleNs
		}
		if err := c.submit(next, now); err != nil {
			return err
		}
		next++
		if w >= 0 {
			c.win.ops[w]++
		}
	}
	return nil
}

// receive settles one served payload received at now in window w:
// exactly-once bookkeeping, latency samples, and the spans of sampled
// packets.
func (c *client) receive(payload int, now int64, w int) {
	id := int64(payload)
	slot := id & slotMask
	if id < 0 || c.owner[slot] != id {
		c.unexpected++
		return
	}
	c.owner[slot] = -1
	c.received++
	start := c.startNs[slot]
	if w >= 0 {
		c.win.ops[w]++
		c.win.served[w]++
	}
	if w >= 0 && id%c.cfg.SampleEvery == 0 {
		c.win.lat.add(w, clampNs(now-start))
		if c.cfg.Trace {
			c.submitNs.add(w, clampNs(c.endNs[slot]-start))
			c.waitNs.add(w, clampNs(now-c.endNs[slot]))
		}
	}
	if c.tr.sampled(id) {
		root := c.tr.add(id, "client.rtt", -1, start, now)
		c.tr.add(id, "engine.submit", root, start, c.endNs[slot])
		c.tr.add(id, "engine.serve_wait", root, c.endNs[slot], now)
	}
}
