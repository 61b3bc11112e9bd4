// Package wfqsort is a software reproduction of "A Scalable Packet
// Sorting Circuit for High-Speed WFQ Packet Scheduling" (McLaughlin,
// Sezer, Blume, Yang, Kupzog, Noll — SOCC 2006 / IEEE TVLSI 16(7),
// 2008): a behavioral model of the paper's tag sort/retrieve circuit and
// of the complete hardware WFQ scheduler built around it.
//
// The two top-level entry points are:
//
//   - Sorter — the paper's contribution: an associative structure that
//     stores finishing tags in sorted order and returns the minimum in
//     guaranteed fixed time, built from a multi-bit search tree with
//     closest-match circuitry, a translation table, and a linked-list
//     tag storage memory (paper Fig. 3);
//
//   - Scheduler — the full Fig. 1 datapath: WFQ tag computation, shared
//     packet buffer, and the sorter, with cycle accounting reproducing
//     the paper's 35.8 Mpps / 40 Gb/s throughput analysis.
//
// The substrates live in internal/ packages: gate-level matcher circuits
// (internal/matcher — paper Figs. 7–8), the multi-bit trie
// (internal/trie — Figs. 4–5), the tag store (internal/taglist —
// Figs. 9–10), the translation table (internal/transtable — Fig. 11),
// the Table I baseline structures (internal/pqueue), traffic generation
// (internal/traffic — Fig. 6 profiles), scheduling disciplines and the
// GPS fluid reference (internal/schedulers, internal/gps), and the
// 130-nm analytical synthesis model (internal/synthesis — Table II).
package wfqsort

import (
	"fmt"
	"io"

	"wfqsort/internal/aqm"
	"wfqsort/internal/core"
	"wfqsort/internal/engine"
	"wfqsort/internal/membus"
	"wfqsort/internal/network"
	"wfqsort/internal/packet"
	"wfqsort/internal/pipeline"
	"wfqsort/internal/pqueue"
	"wfqsort/internal/rank"
	"wfqsort/internal/scheduler"
	"wfqsort/internal/schedulers"
	"wfqsort/internal/sharded"
	"wfqsort/internal/supervisor"
	"wfqsort/internal/taglist"
	"wfqsort/internal/trace"
)

// Sorter is the tag sort/retrieve circuit (paper Fig. 3). See
// internal/core for the full documentation.
type Sorter = core.Sorter

// SorterConfig configures a Sorter.
type SorterConfig = core.Config

// SorterStats aggregates component traffic counters.
type SorterStats = core.Stats

// Entry is one stored tag with its packet-buffer pointer.
type Entry = taglist.Entry

// Fabric is the banked dual-port memory fabric every component memory
// of a Sorter is provisioned from (DESIGN.md §10). Sorter.Fabric
// returns it; pass one via SorterConfig.Fabric to share a clock domain
// or attach a fault campaign.
type Fabric = membus.Fabric

// MemRegion is one named banked memory carved from a Fabric (e.g.
// "tag-storage"); its Stats and BankStats expose per-region traffic,
// stall, and bank-utilization counters.
type MemRegion = membus.Region

// FabricStats is one region's access/stall/conflict/window counters.
type FabricStats = membus.Stats

// Mode selects the sorter's marker reclamation policy.
type Mode = core.Mode

// Sorter reclamation modes.
const (
	// ModeEager makes the sorter a general-purpose priority structure:
	// markers are reclaimed as tags depart, and inserts may arrive in
	// any order.
	ModeEager = core.ModeEager
	// ModeHardware reproduces the silicon exactly: stale markers remain
	// below the minimum and whole tag-space sections are reclaimed in
	// bulk as virtual time advances (paper Fig. 6).
	ModeHardware = core.ModeHardware
)

// WindowCycles is the fixed clock-cycle budget of one sorter operation
// (2 reads + 2 writes to the tag store, paper Fig. 9).
const WindowCycles = core.WindowCycles

// Sentinel errors returned by Sorter operations.
var (
	// ErrEmpty is returned by ExtractMin on an empty sorter.
	ErrEmpty = taglist.ErrEmpty
	// ErrFull is returned by Insert on a full tag store.
	ErrFull = taglist.ErrFull
	// ErrBehindMinimum is returned in strict hardware mode for inserts
	// below the current minimum.
	ErrBehindMinimum = core.ErrBehindMinimum
	// ErrNotEager is returned by the dynamic updates (Sorter.Remove,
	// Sorter.Rerank) in ModeHardware: stale-marker reclamation cannot
	// unlink an interior entry, so dynamic updates require ModeEager.
	ErrNotEager = core.ErrNotEager
)

// NewSorter builds a tag sort/retrieve circuit. The zero-value geometry
// selects the silicon configuration: a 3-level tree of 16-bit nodes over
// 12-bit tags.
func NewSorter(cfg SorterConfig) (*Sorter, error) {
	return core.New(cfg)
}

// Scheduler is the complete WFQ scheduler of paper Fig. 1. See
// internal/scheduler for the full documentation.
type Scheduler = scheduler.Scheduler

// SchedulerConfig configures a Scheduler.
type SchedulerConfig = scheduler.Config

// SchedulerResult is the outcome of a Scheduler run.
type SchedulerResult = scheduler.Result

// DefaultClockHz is the paper's implementation clock (143.2 MHz: one
// 4-cycle window per packet ⇒ 35.8 Mpps).
const DefaultClockHz = scheduler.DefaultClockHz

// FullPolicy selects the scheduler's overload behaviour.
type FullPolicy = scheduler.FullPolicy

// Overload policies for SchedulerConfig.OnFull.
const (
	// FullError aborts the run on an un-admittable packet (default).
	FullError = scheduler.FullError
	// FullTailDrop drops arrivals that find the buffer full.
	FullTailDrop = scheduler.FullTailDrop
	// FullRED applies random early detection before the buffer fills.
	FullRED = scheduler.FullRED
)

// NewScheduler builds the full scheduler datapath.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	return scheduler.New(cfg)
}

// ShardedSorter scales the sort/retrieve circuit across N independent
// lanes: the tag space is partitioned so every tag maps to exactly one
// lane, and a log₂(N)-deep min-combining select tree over the lane
// heads keeps extraction fixed-time. It serves exactly the sequence a
// single Sorter would. See internal/sharded and DESIGN.md §9.
type ShardedSorter = sharded.ShardedSorter

// ShardedConfig configures a ShardedSorter.
type ShardedConfig = sharded.Config

// ShardedRequest is one insert of a sharded batch.
type ShardedRequest = sharded.Request

// ShardedStats aggregates traffic across all lanes plus the sharding
// layer's own accounting (ShardedSorter.StatsSnapshot).
type ShardedStats = sharded.Stats

// NewShardedSorter builds an N-lane sharded sorter (default 4 lanes of
// 1024 links each, interleaved tag partitioning).
func NewShardedSorter(cfg ShardedConfig) (*ShardedSorter, error) {
	return sharded.New(cfg)
}

// Engine is the concurrent line-rate serving runtime over N sorter
// lanes: producer goroutines submit through per-lane bounded rings, one
// datapath goroutine per lane drains its rings in batches into that
// lane's sorter, and a merge goroutine serves the lanes' extractions in
// global tag order through a winner tree, with explicit backpressure
// and fault containment. See internal/engine and DESIGN.md §11 and §14.
type Engine = engine.Engine

// EngineConfig configures an Engine; the zero value is a valid 4-lane
// engine with blocking backpressure.
type EngineConfig = engine.Config

// EngineStats is the engine's counter and gauge snapshot
// (Engine.StatsSnapshot).
type EngineStats = engine.Stats

// EngineServed is one extracted entry delivered on Engine.Served.
type EngineServed = engine.Served

// EnginePolicy selects the engine's ingestion backpressure behaviour.
type EnginePolicy = engine.Policy

// Engine backpressure policies for EngineConfig.Policy.
const (
	// EngineBlock makes Submit wait for ring space (default).
	EngineBlock = engine.PolicyBlock
	// EngineDropTail sheds submissions at full rings.
	EngineDropTail = engine.PolicyDropTail
	// EngineRED applies random early detection before ring admission.
	EngineRED = engine.PolicyRED
)

// REDConfig tunes random early detection (EngineConfig.RED and the
// scheduler's FullRED policy).
type REDConfig = aqm.REDConfig

// SupervisorConfig tunes the engine's per-lane fault-domain policy
// (EngineConfig.Supervision): bounded rebuild retries with exponential
// backoff, quarantine thresholds, and ops-based episode decay and
// reinstate probing. See DESIGN.md §12.
type SupervisorConfig = supervisor.Config

// SupervisorStats is the fault-domain health snapshot embedded in
// EngineStats.Supervision: per-lane states and episode counts plus
// cumulative rebuild/quarantine/reinstate counters.
type SupervisorStats = supervisor.Stats

// Sentinel errors returned by Engine operations.
var (
	// ErrEngineNotStarted is returned by Submit/Stop before Start.
	ErrEngineNotStarted = engine.ErrNotStarted
	// ErrEngineStopped is returned by Submit once shutdown has begun.
	ErrEngineStopped = engine.ErrStopped
)

// NewEngine builds the concurrent serving runtime.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return engine.New(cfg)
}

// Pipeline is an in-order pipeline of stages used for datapath timing
// analysis (paper §III-A; Sorter.Pipeline returns the silicon insert
// pipeline).
type Pipeline = pipeline.Pipe

// PipelineStage is one stage of a Pipeline.
type PipelineStage = pipeline.Stage

// PipelineAnalysis is the timing analysis of a pipeline simulation
// (Pipeline.Simulate).
type PipelineAnalysis = pipeline.Analysis

// PipelineConfig configures a Pipeline.
type PipelineConfig struct {
	// Stages is the in-order stage list; every stage needs a positive
	// cycle occupancy.
	Stages []PipelineStage
}

// Validate checks the configuration. There are no defaults: a pipeline
// needs at least one stage with positive occupancy.
func (c *PipelineConfig) Validate() error {
	if len(c.Stages) == 0 {
		return fmt.Errorf("pipeline: no stages")
	}
	for i, s := range c.Stages {
		if s.Cycles <= 0 {
			return fmt.Errorf("pipeline: stage %d (%s) occupancy %d must be positive", i, s.Name, s.Cycles)
		}
	}
	return nil
}

// NewPipeline builds a pipeline for timing analysis.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return pipeline.New(cfg.Stages...)
}

// Discipline is the scheduling-discipline interface network hops
// construct per hop (see internal/schedulers).
type Discipline = schedulers.Discipline

// Departure is one served packet's timing record.
type Departure = schedulers.Departure

// RankProgram is the pluggable per-packet rank computation every
// discipline is built from (see internal/rank): Rank assigns a packet
// its service priority, OnServe advances the program's flow state.
type RankProgram = rank.Program

// Ranked is a rank program's output for one packet: the service rank
// and, for eligibility-gated disciplines, the start tag.
type Ranked = rank.Ranked

// RankStore holds ranked packets and serves them back in rank order —
// exactly (software heap, the paper's sorter through NewHWRankStore) or
// approximately (the SP-PIFO bank).
type RankStore = rank.Store

// RankItem is one stored (packet, rank, sequence) entry.
type RankItem = rank.Item

// PIFO composes a rank program with a rank store into a scheduling
// discipline (the PIFO abstraction: push-in, first-out).
type PIFO = schedulers.PIFO

// PIFOTree is the hierarchical composition: a root program schedules
// traffic classes, per-class leaf programs schedule flows within them.
type PIFOTree = schedulers.PIFOTree

// TreeClass declares one class of a PIFOTree: its leaf program, leaf
// store, and the flows it owns.
type TreeClass = schedulers.TreeClass

// NewPIFO builds a discipline from a rank program over a rank store.
func NewPIFO(prog RankProgram, store RankStore) (*PIFO, error) {
	return schedulers.NewPIFO(prog, store)
}

// NewHPFQ builds the hierarchical fair queueing tree: start-time fair
// queueing across classes at the root and across each class's flows at
// the leaves. flowWeights[c] maps global flow IDs to weights inside
// class c.
func NewHPFQ(classWeights []float64, flowWeights []map[int]float64, capacityBps float64) (*PIFOTree, error) {
	return schedulers.NewHPFQ(classWeights, flowWeights, capacityBps)
}

// Rank-program constructors (see internal/rank for the discipline
// semantics): fair-queueing programs take normalized flow weights and
// the link capacity; EDF takes per-flow relative deadlines in seconds;
// SRPT takes the flow count; LSTF takes per-flow slack budgets.
func NewSCFQProgram(weights []float64, capacityBps float64) (RankProgram, error) {
	return rank.NewSCFQ(weights, capacityBps)
}

// NewSTFQProgram builds start-time fair queueing.
func NewSTFQProgram(weights []float64, capacityBps float64) (RankProgram, error) {
	return rank.NewSTFQ(weights, capacityBps)
}

// NewWFQProgram builds WFQ over the GPS virtual clock.
func NewWFQProgram(weights []float64, capacityBps float64) (RankProgram, error) {
	return rank.NewWFQ(weights, capacityBps)
}

// NewVirtualClockProgram builds the VirtualClock discipline.
func NewVirtualClockProgram(weights []float64, capacityBps float64) (RankProgram, error) {
	return rank.NewVirtualClock(weights, capacityBps)
}

// NewEDFProgram builds earliest-deadline-first over per-flow relative
// deadlines (seconds after arrival).
func NewEDFProgram(deadlines []float64) (RankProgram, error) {
	return rank.NewEDF(deadlines)
}

// NewSRPTProgram builds shortest-remaining-processing-time over the
// given flow count.
func NewSRPTProgram(flows int) (RankProgram, error) {
	return rank.NewSRPT(flows)
}

// NewLSTFProgram builds least-slack-time-first over per-flow slack
// budgets (seconds).
func NewLSTFProgram(budgets []float64, capacityBps float64) (RankProgram, error) {
	return rank.NewLSTF(budgets, capacityBps)
}

// NewSoftRankStore returns the exact software reference store (binary
// heap, FCFS among equal ranks).
func NewSoftRankStore() *rank.SoftStore { return rank.NewSoftStore() }

// MinTagQueue is the Table I sorting-backend interface (see
// internal/pqueue): any structure that stores integer tags and serves
// the minimum.
type MinTagQueue = pqueue.MinTagQueue

// DynamicQueue is the optional capability interface for backends that
// support charged in-place dynamic updates — Remove (timer
// cancellation) and Rerank (flow re-weighting). Probe for it with a
// type assertion: the paper's tree, the sharded sorter, and every
// software baseline implement it; backends whose structure cannot
// support exact removal (TCAM, SP-PIFO) simply don't.
type DynamicQueue = pqueue.DynamicQueue

// NewHWRankStore quantizes ranks onto any MinTagQueue — the seam that
// runs a rank program over the paper's integer-tag sorting hardware.
func NewHWRankStore(q MinTagQueue, granularity float64, tagRange int) (*rank.HWStore, error) {
	return rank.NewHWStore(q, granularity, tagRange)
}

// NewSPPIFO builds the SP-PIFO approximation backend: k strict-priority
// FIFO queues with push-up/push-down bound adaptation in place of an
// exact sorter.
func NewSPPIFO(k, tagRange int) (*pqueue.SPPIFO, error) {
	return pqueue.NewSPPIFO(k, tagRange)
}

// NewMultiBitTreeQueue returns the paper's multi-bit search tree as a
// MinTagQueue — the exact hardware backend for NewHWRankStore.
func NewMultiBitTreeQueue(tagRange int) (MinTagQueue, error) {
	return pqueue.NewMultiBitTree(tagRange)
}

// Hop is one output link on a network Path.
type Hop = network.Hop

// Path is a chain of hops all flows traverse in order; Run pushes an
// arrival trace through every hop and reports end-to-end delays
// (Parekh–Gallager bounds via WFQEndToEndBound in internal/network).
type Path = network.Path

// PathResult holds a Path run's per-hop departures and end-to-end
// timings.
type PathResult = network.Result

// PathConfig configures a Path.
type PathConfig struct {
	// Hops is the traversal order; every hop needs a positive capacity
	// and a discipline factory.
	Hops []Hop
}

// Validate checks the configuration. There are no defaults: a path
// needs at least one fully-specified hop.
func (c *PathConfig) Validate() error {
	if len(c.Hops) == 0 {
		return fmt.Errorf("network: no hops")
	}
	for i, h := range c.Hops {
		if h.CapacityBps <= 0 {
			return fmt.Errorf("network: hop %d (%s) capacity %v must be positive", i, h.Name, h.CapacityBps)
		}
		if h.NewDiscipline == nil {
			return fmt.Errorf("network: hop %d (%s) has no discipline factory", i, h.Name)
		}
	}
	return nil
}

// NewPath builds a multi-hop network path.
func NewPath(cfg PathConfig) (*Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return network.NewPath(cfg.Hops...)
}

// Packet is one IP packet traversing the scheduler.
type Packet = packet.Packet

// WriteArrivals writes an arrival trace as CSV
// (id,flow,size_bytes,arrival_s).
func WriteArrivals(w io.Writer, pkts []Packet) error {
	return trace.WriteArrivals(w, pkts)
}

// ReadArrivals reads an arrival trace written by WriteArrivals.
func ReadArrivals(r io.Reader) ([]Packet, error) {
	return trace.ReadArrivals(r)
}

// WriteDepartures writes departure records as CSV
// (id,flow,size_bytes,arrival_s,start_s,finish_s).
func WriteDepartures(w io.Writer, deps []Departure) error {
	return trace.WriteDepartures(w, deps)
}

// ReadDepartures reads departure records written by WriteDepartures.
func ReadDepartures(r io.Reader) ([]Departure, error) {
	return trace.ReadDepartures(r)
}
