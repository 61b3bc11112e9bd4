// Package engine is the line-rate serving runtime on top of the sharded
// sort/retrieve circuit: the layer that turns the cycle-accurate model
// into a long-running concurrent service with admission backpressure and
// live observability (the wfqd daemon and sortbench -engine both drive
// it).
//
// The shape follows the software packet-scheduling literature. Eiffel
// (Saeed et al., NSDI'19) shows that software schedulers reach line rate
// only when per-core queues avoid cross-core synchronization on the hot
// path; the engine's datapath is parallel in exactly that shape. Each
// lane — already an independent membus fabric and clock domain — owns
// one datapath goroutine. Producers submit through per-lane sharded
// lock-free SPSC rings (internal/ring; a producer claims a shard with an
// uncontended TryLock, the ring push itself is two atomic index ops),
// each lane goroutine drains its shards in batches through its own
// core.Sorter, and extraction fans back in through per-lane served rings
// merged by a min-combining select tree in a dedicated merge goroutine.
// The PIFO line of work (Sivaraman et al.) frames each lane's serving
// loop: admit with a computed rank, extract the minimum, repeat —
// honoring the paper's fixed operation window on every lane.
//
// Concurrency contract: producers call Submit from any goroutine; each
// lane's sorter, slot table, and fabric are owned by that lane's
// goroutine (the modelled hardware is a synchronous pipeline per lane,
// so all lane-i operations serialize through goroutine i); the Served
// channel's sender side is owned by the merge goroutine; consumers MUST
// keep receiving until Served closes, or the bounded channel
// backpressures the merge stage and, transitively, every lane (by
// design: an unread output queue is a full output queue). DESIGN.md §14
// has the goroutine-ownership diagram and the merge progress guarantee.
//
// Fault domains: with RecoverFaults set, every lane is a supervised
// fault domain (internal/supervisor) repaired on its own goroutine. A
// corrupt-state error or datapath panic on lane i triggers lane-i Audit
// and bounded retry-with-backoff Rebuild from the authoritative tag
// store; a lane that cannot be rebuilt — or that keeps faulting — is
// quarantined, its surviving entries are evacuated onto healthy lanes
// through their transfer inboxes, and its tag slice is routed there
// until a reinstate probe succeeds (degraded mode: slightly perturbed
// order, SP-PIFO-style, instead of no service). Per-lane deadline
// watchdogs convert one wedged lane's drain into accountable shedding
// without touching its healthy peers, and flag a stalled lane as
// not-ready. The accounting invariant
// Inserted == Extracted + Removed + FaultLost + in-sorter is kept per
// lane and summed: no packet is ever lost unaccounted — a cancelled
// packet departs through the Removed ledger, never silently. DESIGN.md
// §12 documents the state machine and policies; §14 the parallel split.
//
// Dynamic updates: Cancel and Reweight are first-class datapath
// operations (DESIGN.md §16). Requests ride per-lane control rings
// (Config.CancelRingShare) and execute on the owning lane's goroutine
// as charged circuit operations against that lane's sorter.
//
//wfqlint:ignore-file determinism the serving engine is intentionally wall-clock code: it measures real enqueue-to-extract latency and real throughput, not simulated time (DESIGN.md §11)
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfqsort/internal/aqm"
	"wfqsort/internal/membus"
	"wfqsort/internal/metrics"
	"wfqsort/internal/sharded"
	"wfqsort/internal/supervisor"
	"wfqsort/internal/taglist"
)

// Sentinel errors returned by Engine operations.
var (
	// ErrNotStarted is returned by Submit/Stop before Start.
	ErrNotStarted = errors.New("engine: not started")
	// ErrStopped is returned by Submit once shutdown has begun (or the
	// datapath died on an unrecoverable error).
	ErrStopped = errors.New("engine: stopped")

	// errDatapathPanic marks a panic recovered inside one lane datapath
	// step, so the supervision layer can treat it as a fault episode.
	errDatapathPanic = errors.New("engine: datapath panic")
)

// Policy selects the ingestion backpressure behaviour when a submission
// ring is full (the engine-level analogue of scheduler.FullPolicy).
type Policy int

const (
	// PolicyBlock makes Submit wait for ring space: backpressure
	// propagates to the producer, nothing is dropped. The default.
	PolicyBlock Policy = iota + 1
	// PolicyDropTail drops the submission when its lane ring is full,
	// counting it in Stats.DropsRing (classic tail drop).
	PolicyDropTail
	// PolicyRED applies random early detection (internal/aqm) on the
	// engine occupancy before ring admission: drops begin
	// probabilistically before the rings fill, counted in Stats.DropsRED.
	// A submission RED admits still blocks for ring space (an admitted
	// packet is never silently lost).
	PolicyRED
)

func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDropTail:
		return "drop-tail"
	case PolicyRED:
		return "red"
	default:
		return "unknown"
	}
}

// Config describes an engine. The zero value of every field selects a
// documented default, so Config{} is a valid 4-lane engine.
type Config struct {
	// Lanes is the sharded sorter's lane count (power of two, 1..64).
	// Default 4. Each lane gets its own datapath goroutine.
	Lanes int
	// LaneCapacity is the number of tag-store links per lane.
	// Default 1024.
	LaneCapacity int
	// MemTech is each lane's tag-store memory technology (default SDR).
	MemTech taglist.MemTech
	// LaneFabrics, when non-nil, supplies one pre-built memory fabric
	// per lane (len == Lanes), e.g. to attach a fault campaign. Attach
	// observers before Start: lane i's goroutine owns fabric i
	// afterwards (use InjectLane to mutate it safely).
	LaneFabrics []*membus.Fabric
	// RingSize is the per-lane submission ring capacity, split across
	// Shards lock-free SPSC shard rings (each shard holds
	// RingSize/Shards rounded up to a power of two, so the effective
	// capacity may round up). Default 256.
	RingSize int
	// Shards is the number of producer shard rings per lane: more
	// shards, fewer producer collisions on the TryLock claim. Default 4.
	Shards int
	// BatchSize caps how many submissions one lane ingest pass moves
	// from the shard rings into the lane sorter, and how many entries
	// one lane serve pass extracts. Default 64.
	BatchSize int
	// ServeAhead is the per-lane served-ring depth between a lane's
	// extractor and the merge stage: how far a lane may run ahead of the
	// global tag-order merge. Default 64.
	ServeAhead int
	// CancelRingShare sizes each lane's control ring — the inbox for
	// Cancel and Reweight requests — as a fraction of RingSize (at least
	// one entry). Control traffic rides its own ring so a burst of
	// cancellations can never crowd out packet admission, and vice
	// versa. Default 0.25; must be in (0, 1].
	CancelRingShare float64
	// Policy is the ring-full backpressure policy (default PolicyBlock).
	Policy Policy
	// RED configures early detection when Policy is PolicyRED; the zero
	// value selects thresholds at 1/4 and 3/4 of the total in-flight
	// capacity (rings + sorter) with maxP 0.05. Invalid thresholds
	// (min ≥ max, out-of-range probabilities) are rejected by Validate.
	RED aqm.REDConfig
	// OutBuffer is the Served channel depth. Default 1024.
	OutBuffer int
	// RecoverFaults enables the fault containment path: corrupt-state
	// errors and lane datapath panics drive the per-lane supervision
	// state machine (rebuild with bounded retries, quarantine,
	// reinstate) instead of stopping the engine.
	RecoverFaults bool
	// Supervision tunes the fault-domain state machine (retry budget,
	// backoff, quarantine and reinstate policy). Zero value = documented
	// supervisor defaults. Only consulted when RecoverFaults is set.
	Supervision supervisor.Config
	// DrainTimeout bounds a graceful drain per component: a lane that
	// makes no progress for this long while it could serve (its served
	// ring has space) has its drain aborted and its backlog shed
	// accountably (counted in DrainShed and FaultLost) — without
	// touching healthy lanes. A merge stage wedged delivering to a
	// consumer that stopped receiving is aborted the same way. Default
	// 5s; negative disables the deadline.
	DrainTimeout time.Duration
	// StallTimeout flags a stalled lane: no progress for this long with
	// work pending marks that lane (and so the engine) stalled — not
	// ready — until progress resumes. Detection only; nothing is shed.
	// Default 2s; negative disables.
	StallTimeout time.Duration
	// ClockHz is the modelled circuit clock used to report modelled
	// packet rates next to wall-clock ones. Defaults to the paper's
	// 143.2 MHz.
	ClockHz float64
	// Label is a free-form tag for the workload or rank discipline
	// driving this engine (e.g. "scfq", "edf"). Purely informational:
	// echoed in Stats.Label so observability surfaces can attribute
	// counters to the discipline that produced them.
	Label string
}

// Validate checks the configuration and normalizes documented zero-value
// defaults in place. New calls it; callers only need it to pre-validate.
// Misconfigurations — non-power-of-two lanes, zero-capacity rings,
// inverted RED thresholds — are rejected here, not at runtime.
func (c *Config) Validate() error {
	if c.Lanes == 0 {
		c.Lanes = 4
	}
	if c.Lanes < 1 || c.Lanes > 64 || c.Lanes&(c.Lanes-1) != 0 {
		return fmt.Errorf("engine: lanes %d must be a power of two in 1..64", c.Lanes)
	}
	if c.LaneCapacity == 0 {
		c.LaneCapacity = 1024
	}
	if c.LaneCapacity < 2 {
		return fmt.Errorf("engine: lane capacity %d must be at least 2", c.LaneCapacity)
	}
	if c.RingSize == 0 {
		c.RingSize = 256
	}
	if c.RingSize < 1 {
		return fmt.Errorf("engine: ring size %d must be positive", c.RingSize)
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 1 || c.Shards > 64 {
		return fmt.Errorf("engine: shards %d must be in 1..64", c.Shards)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("engine: batch size %d must be positive", c.BatchSize)
	}
	if c.ServeAhead == 0 {
		c.ServeAhead = 64
	}
	if c.ServeAhead < 1 {
		return fmt.Errorf("engine: serve-ahead %d must be positive", c.ServeAhead)
	}
	if c.CancelRingShare == 0 {
		c.CancelRingShare = 0.25
	}
	if c.CancelRingShare < 0 || c.CancelRingShare > 1 {
		return fmt.Errorf("engine: cancel ring share %v must be in (0, 1]", c.CancelRingShare)
	}
	if c.Policy == 0 {
		c.Policy = PolicyBlock
	}
	if c.Policy != PolicyBlock && c.Policy != PolicyDropTail && c.Policy != PolicyRED {
		return fmt.Errorf("engine: unknown backpressure policy %d", int(c.Policy))
	}
	if c.OutBuffer == 0 {
		c.OutBuffer = 1024
	}
	if c.OutBuffer < 1 {
		return fmt.Errorf("engine: out buffer %d must be positive", c.OutBuffer)
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 2 * time.Second
	}
	if c.ClockHz == 0 {
		c.ClockHz = 143.2e6
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("engine: clock %v must be positive", c.ClockHz)
	}
	if err := c.Supervision.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.Policy == PolicyRED {
		if c.RED.MinThreshold == 0 && c.RED.MaxThreshold == 0 {
			inflight := float64(c.Lanes * (c.LaneCapacity + c.RingSize))
			c.RED = aqm.REDConfig{
				MinThreshold: inflight / 4,
				MaxThreshold: inflight * 3 / 4,
				MaxP:         0.05,
			}
		}
		if err := c.RED.Validate(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	return nil
}

// Served is one extracted entry delivered to the consumer.
type Served struct {
	// Tag is the finishing tag that was served: always the tag the
	// caller submitted (quarantine routing moves packets between lanes
	// but never rewrites their tags).
	Tag int
	// Payload is the value passed to Submit.
	Payload int
	// Latency is the wall-clock enqueue-to-extract time.
	Latency time.Duration
}

// LaneLedger is one lane's slice of the conservation ledger, as summed
// into the top-level Stats counters.
type LaneLedger struct {
	Lane       int
	Inserted   uint64
	Extracted  uint64
	Removed    uint64
	FaultLost  uint64
	DrainShed  uint64
	GhostDrops uint64
	Evacuated  uint64
}

// Stats is the engine's counter snapshot, following the repository's
// StatsSnapshot() convention (DESIGN.md §11). Counters are cumulative
// since Start, summed over the per-lane ledgers; gauges reflect each
// lane's most recent mirror update (at most a few batches stale).
type Stats struct {
	Running bool
	Lanes   int
	Shards  int
	Policy  string
	// Label echoes Config.Label: the discipline or workload attribution
	// for these counters.
	Label string

	// Health is the engine state machine position: healthy, degraded,
	// stalled, draining, failed, or stopped (DESIGN.md §12). Ready is
	// the readiness view: true only while healthy.
	Health string
	Ready  bool

	// Ingest accounting. Offered = Submitted + DropsRing + DropsRED.
	Submitted uint64
	DropsRing uint64
	DropsRED  uint64

	// Datapath accounting, summed over lanes. The conservation
	// invariant is Inserted == Extracted + Removed + FaultLost +
	// SorterLen (plus ServedOccupied while entries are in flight between
	// a lane and the merge stage). Removed counts packets that left the
	// engine through Cancel — a charged departure, never a loss.
	// Reweights move a packet to a new tag without leaving the engine,
	// so they appear on neither side of the identity.
	Inserted  uint64
	Extracted uint64
	Removed   uint64
	FaultLost uint64

	// Dynamic-update telemetry. CancelMisses counts Cancel/Reweight
	// requests whose target was no longer resident (already served,
	// cancelled, or evacuated); CancelDrops counts requests refused at a
	// full control ring; Reweights counts completed tag moves.
	//wfqlint:ignore conservation cancel-miss telemetry counts requests aimed at departed packets, not packets
	CancelMisses uint64
	//wfqlint:ignore conservation control-ring drop telemetry counts refused requests, not packets
	CancelDrops uint64
	//wfqlint:ignore conservation reweight telemetry counts tag moves of packets that stay resident, not packet departures
	Reweights uint64

	// Batching effectiveness of the lane ingest loops. Pure telemetry:
	// these count datapath iterations, not packets, so they stay outside
	// the conservation identity by design.
	//wfqlint:ignore conservation batching telemetry counts ingest passes, not packets
	Batches uint64
	//wfqlint:ignore conservation batching telemetry counts sorter ops, not packets
	BatchedOps uint64
	MaxBatch   int
	//wfqlint:ignore conservation recovery telemetry counts fault events, not packets
	Recoveries uint64
	//wfqlint:ignore conservation idle telemetry counts empty lane polls, not packets
	DatapathIdles uint64

	// Fault-domain accounting (DESIGN.md §12). Remapped counts packets
	// ingested away from their partition-home lane (routed around a
	// quarantine); Evacuated counts sorter-resident packets relocated at
	// quarantine time; DrainShed counts packets shed by an aborted drain
	// (also in FaultLost); GhostDrops counts extractions suppressed
	// because a corrupted payload reference no longer mapped to a live
	// slot (the underlying packet is accounted in FaultLost when its
	// orphaned slot reconciles); DatapathPanics counts contained panics.
	Remapped   uint64
	Evacuated  uint64
	DrainShed  uint64
	GhostDrops uint64
	//wfqlint:ignore conservation watchdog telemetry counts trips, not packets
	WatchdogTrips uint64
	//wfqlint:ignore conservation panic telemetry counts contained panics, not packets
	DatapathPanics uint64
	//wfqlint:ignore conservation merge telemetry counts forced deliveries past a lagging lane, not packets
	MergeForced uint64
	Supervision supervisor.Stats

	// Per-lane ledger breakdown (the summands of the counters above).
	LaneLedgers []LaneLedger

	// Occupancy gauges.
	RingLens       []int
	LaneLens       []int
	SorterLen      int
	ServedOccupied int
	InFlight       int

	// Enqueue-to-extract wall-clock latency over (up to) the most recent
	// latencyWindow extractions.
	//wfqlint:ignore conservation latency telemetry over a sliding sample window, not packet accounting
	LatencyCount  uint64
	LatencyMeanNs float64
	LatencyP99Ns  float64
	LatencyMaxNs  float64

	// Modelled-hardware view: the per-lane cycle accounting underneath
	// the wall-clock numbers (DESIGN.md §11 relates the two).
	WindowCycles int
	//wfqlint:ignore conservation modelled-cycle gauge, not a packet counter
	MaxLaneCycles uint64
	//wfqlint:ignore conservation modelled-cycle gauge, not a packet counter
	SumLaneCycles uint64
	ModelSpeedup  float64
	ModeledMpps   float64

	// Lane balance and per-lane fabric port pressure, for /metrics.
	LaneLoad     metrics.LaneStats
	FabricLanes  []LaneFabricStats
	RingOccupied int
}

// LaneFabricStats is one lane's memory-fabric pressure snapshot.
type LaneFabricStats struct {
	Lane    int
	Regions []metrics.PortPressure
}

// itemOp discriminates what an item asks of the lane goroutine.
type itemOp uint8

const (
	// opSubmit inserts the packet (the zero value: every pre-existing
	// construction site stays a plain insert).
	opSubmit itemOp = iota
	// opCancel removes the oldest resident packet matching (tag,
	// payload) and charges it to the Removed ledger.
	opCancel
	// opReweight moves the oldest resident (tag, payload) packet to
	// newTag, re-entering it as the newest among equals.
	opReweight
)

// item is one submission in flight through a lane ring, control ring,
// or transfer inbox. tag is always the caller's tag. accounted marks a
// packet that already entered the Inserted ledger (an evacuee or
// reweighted packet moving between lanes) so re-ingestion never
// double-counts it.
type item struct {
	op        itemOp
	tag       int
	payload   int
	newTag    int // valid for opReweight
	submitNs  int64
	accounted bool
}

// slot is one entry of a lane's payload indirection table: the lane
// sorter stores the slot index, the slot remembers the caller's tag,
// payload, and the submission timestamp.
type slot struct {
	tag      int
	payload  int
	submitNs int64
	live     bool
}

// outEntry is one extracted entry in flight on a lane's served ring,
// waiting for the merge stage to deliver it in global tag order.
type outEntry struct {
	tag      int
	payload  int
	submitNs int64
}

// latencyWindow is the sliding sample window for latency percentiles.
const latencyWindow = 8192

// Engine is the concurrent serving runtime. Build with New, Start it,
// Submit from any number of goroutines, consume Served until it closes,
// Stop to drain gracefully.
type Engine struct {
	cfg      Config
	tagRange int
	sup      *supervisor.Supervisor

	lanes []*laneWorker

	out       chan Served
	done      chan struct{} // closed when the merge stage (last goroutine) exits
	drainReq  chan struct{} // closed by Stop once in-flight submits settle
	terminate chan struct{} // closed on a terminal datapath error
	mergeWake chan struct{} // lane → merge doorbell

	abortDrain chan struct{} // global drain abort: the merge stage is wedged
	abortOnce  sync.Once
	failOnce   sync.Once
	softOnce   sync.Once
	runErr     error // terminal error; written once before terminate closes
	softErr    error // non-terminal drain-abort error; written once before done closes

	red   *aqm.RED
	redMu sync.Mutex

	// quar mirrors the supervisor's quarantine set for the Submit fast
	// path (atomic reads, no supervisor lock on ingest).
	quar []atomic.Bool

	started  atomic.Bool
	stopping atomic.Bool
	draining atomic.Bool
	subWG    sync.WaitGroup
	laneWG   sync.WaitGroup
	stopOnce sync.Once

	// drainArrived is the drain barrier: lanes that have emptied their
	// backlog arrive here; only after every lane arrives can no lane
	// produce into another's transfer inbox, so each lane then runs one
	// final sweep before exiting.
	drainArrived atomic.Int32

	// Ingest-side and merge-side global counters.
	submitted     atomic.Uint64
	dropsRing     atomic.Uint64
	dropsRED      atomic.Uint64
	cancelDrops   atomic.Uint64
	remapped      atomic.Uint64
	watchdogTrips atomic.Uint64
	mergeForced   atomic.Uint64
	mergeProgress atomic.Uint64
	mergeBlocked  atomic.Bool

	windowCycles int

	mu     sync.Mutex // guards the latency reservoir
	latBuf []int64    // circular latency sample window
	latPos int
	latN   uint64
}

// New builds an engine. The configuration is validated and defaulted via
// Config.Validate.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sorters, err := sharded.NewLanes(sharded.Config{
		Lanes:        cfg.Lanes,
		LaneCapacity: cfg.LaneCapacity,
		MemTech:      cfg.MemTech,
		LaneFabrics:  cfg.LaneFabrics,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	sup, err := supervisor.New(cfg.Lanes, cfg.Supervision)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{
		cfg:          cfg,
		tagRange:     sorters[0].TagRange(),
		sup:          sup,
		lanes:        make([]*laneWorker, cfg.Lanes),
		out:          make(chan Served, cfg.OutBuffer),
		done:         make(chan struct{}),
		drainReq:     make(chan struct{}),
		terminate:    make(chan struct{}),
		mergeWake:    make(chan struct{}, 1),
		abortDrain:   make(chan struct{}),
		quar:         make([]atomic.Bool, cfg.Lanes),
		windowCycles: sorters[0].CyclesPerWindow(),
		latBuf:       make([]int64, 0, latencyWindow),
	}
	for i := range e.lanes {
		e.lanes[i] = newLaneWorker(e, i, sorters[i])
	}
	if cfg.Policy == PolicyRED {
		red, err := aqm.NewRED(cfg.RED)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.red = red
	}
	return e, nil
}

// Lanes returns the lane count.
func (e *Engine) Lanes() int { return len(e.lanes) }

// TagRange returns the number of representable tag values.
func (e *Engine) TagRange() int { return e.tagRange }

// Capacity returns the total sorter links across lanes (the in-sorter
// occupancy ceiling; rings add roughly Lanes×RingSize on top).
func (e *Engine) Capacity() int { return e.cfg.Lanes * e.cfg.LaneCapacity }

// Served returns the consumer channel. It is closed after a graceful
// drain completes (or the datapath dies); consumers must keep receiving
// until then.
func (e *Engine) Served() <-chan Served { return e.out }

// Start spawns one datapath goroutine per lane, the merge stage, and
// the watchdog. It may be called once.
func (e *Engine) Start() error {
	if !e.started.CompareAndSwap(false, true) {
		return errors.New("engine: already started")
	}
	for i := range e.lanes {
		e.laneWG.Add(1)
		go e.laneLoop(i)
	}
	go e.mergeLoop()
	go e.watchdog()
	return nil
}

// remapLane routes a tag around quarantined lanes: a tag owned by a
// healthy lane goes to its partition-home lane; a tag owned by a
// quarantined lane goes to the nearest healthy lane. Lane sorters hold
// the full tag range, so routing a packet to a foreign lane perturbs
// only the merge interleaving, never the tag itself (the SP-PIFO trade:
// slightly approximate order beats no service). ok is false when no
// healthy lane remains.
func (e *Engine) remapLane(tag int) (lane int, ok bool) {
	lane = sharded.InterleavedLane(tag, len(e.lanes))
	if !e.quar[lane].Load() {
		return lane, true
	}
	n := e.cfg.Lanes
	for d := 1; d < n; d++ {
		h := (lane + d) % n
		if !e.quar[h].Load() {
			return h, true
		}
	}
	return lane, false
}

// Submit offers one (tag, payload) to the engine from any goroutine. It
// reports whether the submission was admitted: under PolicyDropTail and
// PolicyRED an overloaded engine sheds load by returning (false, nil)
// and counting the drop; under PolicyBlock it waits for ring space. The
// error is non-nil only for invalid tags or a stopped engine.
func (e *Engine) Submit(tag, payload int) (admitted bool, err error) {
	if !e.started.Load() {
		return false, ErrNotStarted
	}
	if e.stopping.Load() || e.terminated() || e.stopped() {
		return false, ErrStopped
	}
	e.subWG.Add(1)
	defer e.subWG.Done()
	// Re-check after registering with the in-flight group: Stop waits on
	// the group after setting the flag, so a Submit that observes
	// stopping false here is guaranteed to finish before the drain scan.
	// terminated/stopped are re-checked too — once the datapath has died
	// no lane will ever drain the rings, so an admitted push would be a
	// silently lost packet (Submitted != Inserted) behind a true return.
	if e.stopping.Load() || e.terminated() || e.stopped() {
		return false, ErrStopped
	}
	if tag < 0 || tag >= e.tagRange {
		return false, fmt.Errorf("engine: tag %d outside [0,%d)", tag, e.tagRange)
	}
	lane, ok := e.remapLane(tag)
	if !ok {
		return false, fmt.Errorf("engine: all lanes quarantined: %w", ErrStopped)
	}
	lw := e.lanes[lane]
	it := item{tag: tag, payload: payload, submitNs: time.Now().UnixNano()}
	switch e.cfg.Policy {
	case PolicyDropTail:
		if !lw.tryPush(it) {
			e.dropsRing.Add(1)
			return false, nil
		}
	case PolicyRED:
		e.redMu.Lock()
		admit := e.red.Arrive()
		e.redMu.Unlock()
		if !admit {
			e.dropsRED.Add(1)
			return false, nil
		}
		if err := e.blockPush(lw, it); err != nil {
			e.redDepart(1)
			return false, err
		}
	default: // PolicyBlock
		if err := e.blockPush(lw, it); err != nil {
			return false, err
		}
	}
	e.submitted.Add(1)
	lw.wake()
	return true, nil
}

// blockPush waits for shard-ring space on lw: the producer-side
// backpressure of PolicyBlock and an admitted PolicyRED packet.
func (e *Engine) blockPush(lw *laneWorker, it item) error {
	if lw.tryPush(it) {
		return nil
	}
	// The single space token may go to another waiting producer, so a
	// waiter rescans at least once a millisecond; one timer serves
	// every retry of this call.
	rescan := time.NewTimer(time.Millisecond)
	defer rescan.Stop()
	for {
		select {
		case <-lw.space:
		case <-e.done:
			return ErrStopped
		case <-e.terminate:
			return ErrStopped
		case <-rescan.C:
			rescan.Reset(time.Millisecond)
		}
		if lw.tryPush(it) {
			return nil
		}
	}
}

// Cancel asks the engine to remove the oldest resident packet matching
// (tag, payload) — the timer-cancellation primitive. The request rides
// the owning lane's control ring and executes on that lane's datapath
// goroutine as a charged circuit operation (tree search, translation
// read, list unlink); a removed packet is accounted in Stats.Removed,
// never delivered, never lost. Cancel reports whether the request was
// admitted: false with a nil error means the control ring was full
// (counted in CancelDrops; retry later). A request whose target has
// already been served, cancelled, or evacuated executes as a miss,
// counted in CancelMisses — by then the request races the packet's
// departure, and the departure won.
func (e *Engine) Cancel(tag, payload int) (bool, error) {
	return e.submitControl(item{op: opCancel, tag: tag, payload: payload})
}

// Reweight asks the engine to move the oldest resident packet matching
// (tag, payload) to newTag — the flow re-weighting primitive. The
// packet re-enters as the newest among equal tags and is still
// delivered exactly once; reweights appear in Stats.Reweights and on
// neither side of the conservation identity. Admission and miss
// semantics match Cancel.
func (e *Engine) Reweight(tag, payload, newTag int) (bool, error) {
	if newTag < 0 || newTag >= e.tagRange {
		return false, fmt.Errorf("engine: reweight tag %d outside [0,%d)", newTag, e.tagRange)
	}
	return e.submitControl(item{op: opReweight, tag: tag, payload: payload, newTag: newTag})
}

// submitControl routes one control request to the target tag's
// partition-home lane. Control requests never block: a full control
// ring refuses the request so a cancellation storm cannot wedge the
// producer the way PolicyBlock admission can.
func (e *Engine) submitControl(it item) (bool, error) {
	if !e.started.Load() {
		return false, ErrNotStarted
	}
	if e.stopping.Load() || e.terminated() || e.stopped() {
		return false, ErrStopped
	}
	e.subWG.Add(1)
	defer e.subWG.Done()
	if e.stopping.Load() || e.terminated() || e.stopped() {
		return false, ErrStopped
	}
	if it.tag < 0 || it.tag >= e.tagRange {
		return false, fmt.Errorf("engine: tag %d outside [0,%d)", it.tag, e.tagRange)
	}
	it.submitNs = time.Now().UnixNano()
	lw := e.lanes[sharded.InterleavedLane(it.tag, len(e.lanes))]
	if !lw.pushControl(it) {
		e.cancelDrops.Add(1)
		return false, nil
	}
	lw.wake()
	return true, nil
}

// InjectLane hands one chaos action to lane i's datapath goroutine,
// which runs it before its next scheduling pass with full panic
// containment — a panicking action exercises exactly that lane's
// datapath-panic recovery path. This is the chaos seam used by
// cmd/chaoslab and the fault-containment fuzz harness: the closure runs
// on the goroutine that owns lane i's sorter, fabric, and slot table,
// so it may corrupt them (e.g. via a fault.Injector) without racing the
// datapath. Actions that touch lane j's state must be injected into
// lane j.
func (e *Engine) InjectLane(lane int, fn func()) error {
	if !e.started.Load() {
		return ErrNotStarted
	}
	if lane < 0 || lane >= len(e.lanes) {
		return fmt.Errorf("engine: inject lane %d outside [0,%d)", lane, len(e.lanes))
	}
	lw := e.lanes[lane]
	select {
	case lw.inject <- fn:
		lw.wake()
		return nil
	case <-e.done:
		return ErrStopped
	case <-e.terminate:
		return ErrStopped
	}
}

// Inject hands one chaos action to lane 0's datapath goroutine (the
// single-lane-targeting form of InjectLane, kept for campaigns that
// attack one fixed lane).
func (e *Engine) Inject(fn func()) error { return e.InjectLane(0, fn) }

// Stop begins a graceful shutdown: new submissions are rejected with
// ErrStopped, in-flight ones complete, every lane drains its rings
// through its sorter, every queued entry is extracted and delivered in
// merge order, and the Served channel is closed. If the consumer has
// wedged — or one lane has — the per-component drain watchdogs
// (Config.DrainTimeout) abort that component's drain and shed its
// remainder accountably rather than hanging forever. It returns the
// datapath's terminal error, if any (nil after a clean drain), and is
// safe to call more than once.
func (e *Engine) Stop() error {
	if !e.started.Load() {
		return ErrNotStarted
	}
	e.stopOnce.Do(func() {
		e.stopping.Store(true)
		e.subWG.Wait()
		e.draining.Store(true)
		close(e.drainReq)
	})
	<-e.done
	if e.runErr != nil {
		return e.runErr
	}
	return e.softErr
}

// fail records the terminal datapath error and signals every goroutine
// to exit. First writer wins; the write is ordered before the terminate
// close (and so before done closes and Stop returns).
func (e *Engine) fail(err error) {
	e.failOnce.Do(func() {
		e.runErr = err
		close(e.terminate)
	})
}

// failSoft records a non-terminal shutdown diagnostic (an aborted
// drain): Stop reports it, but the engine still drains what it can.
func (e *Engine) failSoft(err error) {
	e.softOnce.Do(func() { e.softErr = err })
}

// terminated reports whether a terminal failure has been signalled.
func (e *Engine) terminated() bool {
	select {
	case <-e.terminate:
		return true
	default:
		return false
	}
}

// drainAborted reports whether the global (merge-stage) drain watchdog
// has fired.
func (e *Engine) drainAborted() bool {
	select {
	case <-e.abortDrain:
		return true
	default:
		return false
	}
}

// wakeMerge rings the merge stage's doorbell.
func (e *Engine) wakeMerge() {
	select {
	case e.mergeWake <- struct{}{}:
	default:
	}
}

// redDepart updates the RED occupancy estimate for n departures.
func (e *Engine) redDepart(n int) {
	if e.red == nil {
		return
	}
	e.redMu.Lock()
	for i := 0; i < n; i++ {
		e.red.Depart()
	}
	e.redMu.Unlock()
}

// guardStep runs one lane datapath step, converting a panic into an
// error so the supervision layer can treat it as a fault episode
// instead of killing the engine.
func (e *Engine) guardStep(fn func() (int, error)) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errDatapathPanic, r)
		}
	}()
	return fn()
}

// guardAction runs one injected chaos action with panic containment.
func (e *Engine) guardAction(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errDatapathPanic, r)
		}
	}()
	fn()
	return nil
}

// healthyLanes counts lanes not under quarantine.
func (e *Engine) healthyLanes() int {
	n := 0
	for i := range e.quar {
		if !e.quar[i].Load() {
			n++
		}
	}
	return n
}

// servedOccupied sums the served-ring occupancy across lanes (safe from
// any goroutine; best-effort between the owners' cursor updates).
func (e *Engine) servedOccupied() int {
	n := 0
	for _, lw := range e.lanes {
		n += lw.served.Len()
	}
	return n
}

// allLanesDone reports whether every lane goroutine has exited.
func (e *Engine) allLanesDone() bool {
	for _, lw := range e.lanes {
		if !lw.doneFlag.Load() {
			return false
		}
	}
	return true
}

// recordLatency appends one sample to the sliding window.
func (e *Engine) recordLatency(ns int64) {
	e.mu.Lock()
	if len(e.latBuf) < latencyWindow {
		e.latBuf = append(e.latBuf, ns)
	} else {
		e.latBuf[e.latPos] = ns
		e.latPos = (e.latPos + 1) % latencyWindow
	}
	e.latN++
	e.mu.Unlock()
}

// healthState places the engine on its state machine (DESIGN.md §12):
// stopped → healthy ⇄ {degraded, stalled} → draining → stopped/failed.
func (e *Engine) healthState() string {
	switch {
	case !e.started.Load():
		return "stopped"
	case e.stopped():
		// runErr/softErr are written before done closes, so these reads
		// are ordered after the writes.
		if e.runErr != nil || e.softErr != nil {
			return "failed"
		}
		return "stopped"
	case e.stopping.Load():
		return "draining"
	default:
		return e.sup.EngineState().String()
	}
}

// Ready reports readiness: the engine is running and fully healthy (no
// quarantined, rebuilding, or stalled lane, not draining). A degraded
// engine still serves — liveness holds — but reports not-ready so load
// balancers steer new work away while it recovers.
func (e *Engine) Ready() bool { return e.healthState() == "healthy" }

// StatsSnapshot returns the engine counters and gauges, summing the
// per-lane ledgers. Safe to call from any goroutine at any time; gauges
// may trail the lane datapaths by a few batches.
func (e *Engine) StatsSnapshot() Stats {
	st := Stats{
		Running:       e.started.Load() && !e.stopped(),
		Lanes:         e.cfg.Lanes,
		Shards:        e.cfg.Shards,
		Policy:        e.cfg.Policy.String(),
		Label:         e.cfg.Label,
		Health:        e.healthState(),
		Submitted:     e.submitted.Load(),
		DropsRing:     e.dropsRing.Load(),
		DropsRED:      e.dropsRED.Load(),
		CancelDrops:   e.cancelDrops.Load(),
		Remapped:      e.remapped.Load(),
		WatchdogTrips: e.watchdogTrips.Load(),
		MergeForced:   e.mergeForced.Load(),
		Supervision:   e.sup.StatsSnapshot(),
		LaneLedgers:   make([]LaneLedger, len(e.lanes)),
		RingLens:      make([]int, len(e.lanes)),
		LaneLens:      make([]int, len(e.lanes)),
		FabricLanes:   make([]LaneFabricStats, len(e.lanes)),
		WindowCycles:  e.windowCycles,
	}
	st.Ready = st.Health == "healthy"
	laneInserts := make([]uint64, len(e.lanes))
	for i, lw := range e.lanes {
		led := LaneLedger{
			Lane:       i,
			Inserted:   lw.inserted.Load(),
			Extracted:  lw.extracted.Load(),
			Removed:    lw.removed.Load(),
			FaultLost:  lw.faultLost.Load(),
			DrainShed:  lw.drainShed.Load(),
			GhostDrops: lw.ghostDrops.Load(),
			Evacuated:  lw.evacuated.Load(),
		}
		st.LaneLedgers[i] = led
		st.Inserted += led.Inserted
		st.Extracted += led.Extracted
		st.Removed += led.Removed
		st.FaultLost += led.FaultLost
		st.DrainShed += led.DrainShed
		st.GhostDrops += led.GhostDrops
		st.Evacuated += led.Evacuated
		st.CancelMisses += lw.cancelMisses.Load()
		st.Reweights += lw.reweights.Load()
		st.Batches += lw.batches.Load()
		st.BatchedOps += lw.batchedOps.Load()
		st.Recoveries += lw.recoveries.Load()
		st.DatapathIdles += lw.idles.Load()
		st.DatapathPanics += lw.panics.Load()
		if mb := int(lw.maxBatch.Load()); mb > st.MaxBatch {
			st.MaxBatch = mb
		}
		st.RingLens[i] = lw.ringsOccupied()
		st.RingOccupied += st.RingLens[i]
		st.LaneLens[i] = int(lw.sorterLen.Load())
		st.SorterLen += st.LaneLens[i]
		st.ServedOccupied += lw.served.Len()
		laneInserts[i] = led.Inserted
		if m := lw.mirror.Load(); m != nil {
			st.FabricLanes[i] = LaneFabricStats{Lane: i, Regions: m.fabric}
			st.SumLaneCycles += m.cycles
			if m.cycles > st.MaxLaneCycles {
				st.MaxLaneCycles = m.cycles
			}
		} else {
			st.FabricLanes[i] = LaneFabricStats{Lane: i}
		}
	}
	st.LaneLoad = metrics.LaneLoad(laneInserts)
	st.InFlight = st.RingOccupied + st.SorterLen + st.ServedOccupied
	if st.MaxLaneCycles > 0 {
		st.ModelSpeedup = float64(st.SumLaneCycles) / float64(st.MaxLaneCycles)
	}
	e.mu.Lock()
	st.LatencyCount = e.latN
	if n := len(e.latBuf); n > 0 {
		s := make([]int64, n)
		copy(s, e.latBuf)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		sum := int64(0)
		for _, v := range s {
			sum += v
		}
		st.LatencyMeanNs = float64(sum) / float64(n)
		st.LatencyP99Ns = float64(s[n*99/100])
		st.LatencyMaxNs = float64(s[n-1])
	}
	e.mu.Unlock()
	if st.ModelSpeedup > 0 && st.WindowCycles > 0 {
		st.ModeledMpps = e.cfg.ClockHz / float64(st.WindowCycles) * st.ModelSpeedup / 1e6
	}
	return st
}

// stopped reports whether the datapath has exited.
func (e *Engine) stopped() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}
