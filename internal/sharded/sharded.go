// Package sharded scales the paper's tag sort/retrieve circuit out
// across multiple independent sorter lanes, the first step toward the
// multi-core/multi-bank deployment the silicon invites: the cyclic
// 12-bit tag space is partitioned over N lanes, each lane is a complete
// core.Sorter with its own memories and clock domain, and a log₂(N)-deep
// min-combining select tree over the per-lane heads keeps PeekMin and
// ExtractMin fixed-time as the lane count grows.
//
// The shape follows the software packet-scheduling literature: Eiffel
// (NSDI'19) partitions work across bucketed queues to reach line rate on
// commodity cores, and the PIFO line of work shows a small combining
// stage over parallel sorted lanes preserves scheduling semantics. Here
// each lane keeps the paper's per-lane guarantees (4-cycle insert
// window, fixed-depth tree search), inserts are batched and driven
// concurrently — one goroutine per lane, no shared mutable state — and
// cross-lane cycle accounting is reported as the maximum over lanes,
// matching the wall-clock of parallel hardware.
//
// Because every tag value maps to exactly one lane, cross-lane ties are
// impossible and per-lane FCFS among duplicate tags is preserved: the
// sharded sorter serves exactly the sequence a single sorter would.
package sharded

import (
	"fmt"
	"sync"

	"wfqsort/internal/core"
	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
	"wfqsort/internal/taglist"
)

// Partition selects how the tag space is split across lanes.
type Partition int

const (
	// PartitionInterleaved assigns tag t to lane t mod N (low literal
	// bits). A moving WFQ tag window spreads evenly over all lanes, so
	// this is the load-balancing default.
	PartitionInterleaved Partition = iota + 1
	// PartitionBlocked assigns contiguous tag blocks to lanes (high
	// literal bits): lane i owns [i·R/N, (i+1)·R/N). Load concentrates
	// in the lane owning the current service window, but section
	// reclamation maps to whole lanes; useful for wraparound studies.
	PartitionBlocked
)

func (p Partition) String() string {
	switch p {
	case PartitionInterleaved:
		return "interleaved"
	case PartitionBlocked:
		return "blocked"
	default:
		return "unknown"
	}
}

// Config describes a sharded sorter.
type Config struct {
	// Lanes is the number of sorter lanes (power of two, 1..64).
	// Default 4.
	Lanes int
	// LaneCapacity is the number of tag-store links per lane.
	// Default 1024.
	LaneCapacity int
	// Partition is the tag-space split (default PartitionInterleaved).
	Partition Partition
	// MemTech is each lane's tag-store memory technology.
	MemTech taglist.MemTech
	// PayloadBits is the packet-pointer width per link (default 24).
	PayloadBits int
	// LaneFabrics, when non-nil, supplies one pre-built memory fabric
	// per lane (len == Lanes). Callers use this to attach fault
	// injectors, read port statistics on individual lane domains, or
	// run a lane on a caller-owned clock (membus.New(clock)). When nil,
	// a fresh fabric on a fresh clock is built per lane.
	LaneFabrics []*membus.Fabric
}

// Validate checks the configuration and normalizes documented
// zero-value defaults in place (4 lanes of 1024 links, interleaved
// partitioning). New calls it; callers only need it to pre-validate.
func (c *Config) Validate() error {
	if c.Lanes == 0 {
		c.Lanes = 4
	}
	if c.Lanes < 1 || c.Lanes > 64 || c.Lanes&(c.Lanes-1) != 0 {
		return fmt.Errorf("sharded: lanes %d must be a power of two in 1..64", c.Lanes)
	}
	if c.LaneCapacity == 0 {
		c.LaneCapacity = 1024
	}
	if c.Partition == 0 {
		c.Partition = PartitionInterleaved
	}
	if c.Partition != PartitionInterleaved && c.Partition != PartitionBlocked {
		return fmt.Errorf("sharded: unknown partition %d", int(c.Partition))
	}
	if c.LaneFabrics != nil && len(c.LaneFabrics) != c.Lanes {
		return fmt.Errorf("sharded: %d lane fabrics for %d lanes", len(c.LaneFabrics), c.Lanes)
	}
	return nil
}

// Request is one insert of a batch.
type Request struct {
	Tag     int
	Payload int
}

// Stats aggregates traffic across all lanes plus the sharding layer's
// own accounting.
type Stats struct {
	Lanes          int
	Inserts        uint64
	Extracts       uint64
	Combined       uint64
	Removes        uint64 // dynamic in-place removals across lanes
	Reranks        uint64 // dynamic re-ranks (same-lane and cross-lane)
	Batches        uint64
	SelectCompares uint64 // combining-tree comparator evaluations
	SelectDepth    int    // comparator levels leaf→root (log₂ lanes)

	// Cycle accounting. MaxLaneCycles is the parallel-hardware wall
	// clock (the slowest lane's clock); SumLaneCycles is the
	// serial-equivalent work. Their ratio is the modeled speedup.
	MaxLaneCycles uint64
	SumLaneCycles uint64

	LaneLens     []int
	LaneInserts  []uint64
	LaneExtracts []uint64
	PerLane      []core.Stats
}

// ModelSpeedup returns the modeled parallel speedup: serial-equivalent
// work cycles over the slowest lane's cycles (1.0 for a single lane).
func (s Stats) ModelSpeedup() float64 {
	if s.MaxLaneCycles == 0 {
		return 1
	}
	return float64(s.SumLaneCycles) / float64(s.MaxLaneCycles)
}

type lane struct {
	clock    *hwsim.Clock
	fab      *membus.Fabric
	sorter   *core.Sorter
	inserts  uint64
	extracts uint64
	removes  uint64
	reranks  uint64
	// cycleBase is the lane clock value at the last ResetStats; cycle
	// gauges report clock.Now()-cycleBase so benchmark intervals do not
	// inherit warmup traffic.
	cycleBase uint64
}

// ShardedSorter is the multi-lane sorter. Like the single-lane circuit
// it models, it is not safe for concurrent use by multiple callers; the
// internal InsertBatch fan-out is the only concurrency and is fully
// synchronized before the call returns.
type ShardedSorter struct {
	cfg      Config
	lanes    []*lane
	tree     *selectTree
	n        int
	tagRange int
	block    int // tags per lane under PartitionBlocked

	combined uint64
	batches  uint64
}

// New builds an empty sharded sorter. Lanes run in the library's eager
// reclamation mode: the min-combining tree compares head tags linearly,
// which is exact for eager lanes (hardware-mode cyclic wraparound
// comparison across lanes is future work, see DESIGN.md §9).
func New(cfg Config) (*ShardedSorter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &ShardedSorter{cfg: cfg, tree: newSelectTree(cfg.Lanes)}
	for i := 0; i < cfg.Lanes; i++ {
		fab := membus.New(nil)
		if cfg.LaneFabrics != nil {
			fab = cfg.LaneFabrics[i]
		}
		srt, err := core.New(core.Config{
			Capacity:    cfg.LaneCapacity,
			PayloadBits: cfg.PayloadBits,
			MemTech:     cfg.MemTech,
			Mode:        core.ModeEager,
			Fabric:      fab,
		})
		if err != nil {
			return nil, fmt.Errorf("sharded: lane %d: %w", i, err)
		}
		s.lanes = append(s.lanes, &lane{clock: fab.Clock(), fab: fab, sorter: srt})
	}
	s.tagRange = s.lanes[0].sorter.TagRange()
	s.block = s.tagRange / cfg.Lanes
	return s, nil
}

// Lanes returns the lane count.
func (s *ShardedSorter) Lanes() int { return len(s.lanes) }

// Partition returns the configured tag-space split.
func (s *ShardedSorter) Partition() Partition { return s.cfg.Partition }

// TagRange returns the number of representable tag values.
func (s *ShardedSorter) TagRange() int { return s.tagRange }

// Capacity returns the total tag-store links across lanes.
func (s *ShardedSorter) Capacity() int { return len(s.lanes) * s.cfg.LaneCapacity }

// Len returns the number of stored tags.
func (s *ShardedSorter) Len() int { return s.n }

// LaneFor returns the lane owning tag under the configured partition.
func (s *ShardedSorter) LaneFor(tag int) int {
	if s.cfg.Partition == PartitionBlocked {
		return tag / s.block
	}
	return tag & (len(s.lanes) - 1)
}

// Lane exposes one lane's sorter for inspection, audit, and fault
// campaigns (verification port; mutating it directly desynchronizes the
// select tree — pair with ResyncHeads).
func (s *ShardedSorter) Lane(i int) *core.Sorter { return s.lanes[i].sorter }

// LaneClock returns lane i's clock domain.
func (s *ShardedSorter) LaneClock(i int) *hwsim.Clock { return s.lanes[i].clock }

// LaneFabric returns lane i's memory fabric (for fault attachment and
// per-bank port statistics).
func (s *ShardedSorter) LaneFabric(i int) *membus.Fabric { return s.lanes[i].fab }

// LaneLens returns each lane's occupancy.
func (s *ShardedSorter) LaneLens() []int {
	out := make([]int, len(s.lanes))
	for i, l := range s.lanes {
		out[i] = l.sorter.Len()
	}
	return out
}

func (s *ShardedSorter) refreshHead(i int) {
	if head, ok := s.lanes[i].sorter.PeekMin(); ok {
		s.tree.update(i, head.Tag, true)
	} else {
		s.tree.update(i, 0, false)
	}
}

// ResyncHead rebuilds lane i's head register in the select tree and
// recounts the occupancy, after out-of-band mutation of that single
// lane (a per-lane Rebuild or Flush through Lane(i)). Unlike
// ResyncHeads it performs memory traffic — a PeekMin through the lane's
// fabric — on lane i only: in a one-goroutine-per-lane deployment the
// caller repairs its own lane without touching fabrics owned by other
// goroutines. The select tree and occupancy counter themselves are
// single-writer state: calls must still be serialized with every other
// top-level ShardedSorter operation (the parallel engine does not use
// the top-level tree at all — it owns lanes directly and merges through
// its own concurrent select tree).
func (s *ShardedSorter) ResyncHead(i int) {
	s.refreshHead(i)
	n := 0
	for _, l := range s.lanes {
		n += l.sorter.Len()
	}
	s.n = n
}

// ResyncHeads rebuilds the select tree from the live lane heads. Needed
// after out-of-band lane mutation (fault recovery via Lane(i).Rebuild,
// test poking); normal operations keep the tree synchronized.
func (s *ShardedSorter) ResyncHeads() {
	n := 0
	for i, l := range s.lanes {
		s.refreshHead(i)
		n += l.sorter.Len()
	}
	s.n = n
}

func (s *ShardedSorter) checkTag(tag int) error {
	if tag < 0 || tag >= s.tagRange {
		return fmt.Errorf("sharded: tag %d outside [0,%d)", tag, s.tagRange)
	}
	return nil
}

// Insert stores one tag, routing it to its owning lane. Cost is one
// lane insert window plus the leaf's root path in the select tree.
func (s *ShardedSorter) Insert(tag, payload int) error {
	if err := s.checkTag(tag); err != nil {
		return err
	}
	i := s.LaneFor(tag)
	if err := s.lanes[i].sorter.Insert(tag, payload); err != nil {
		return fmt.Errorf("sharded: lane %d: %w", i, err)
	}
	s.lanes[i].inserts++
	s.n++
	s.refreshHead(i)
	return nil
}

// InsertBatch groups the requests by owning lane — preserving arrival
// order within each lane, so FCFS among duplicates survives — and
// drives all lanes concurrently, one goroutine per non-empty lane. Each
// lane respects its own 4-cycle insert window; the batch as a whole
// costs the slowest lane's cycles (max-lane accounting, the parallel
// hardware's wall clock). It returns that cost.
//
// The batch is validated (tag ranges, per-lane capacity) before any
// lane is touched, so a rejected batch leaves the sorter unchanged.
func (s *ShardedSorter) InsertBatch(reqs []Request) (maxLaneCycles uint64, err error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	perLane := make([][]Request, len(s.lanes))
	for _, r := range reqs {
		if err := s.checkTag(r.Tag); err != nil {
			return 0, err
		}
		i := s.LaneFor(r.Tag)
		perLane[i] = append(perLane[i], r)
	}
	for i, batch := range perLane {
		if free := s.cfg.LaneCapacity - s.lanes[i].sorter.Len(); len(batch) > free {
			return 0, fmt.Errorf("sharded: lane %d: batch of %d exceeds %d free links: %w",
				i, len(batch), free, taglist.ErrFull)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(s.lanes))
	starts := make([]uint64, len(s.lanes))
	for i, batch := range perLane {
		if len(batch) == 0 {
			continue
		}
		starts[i] = s.lanes[i].clock.Now()
		wg.Add(1)
		// The goroutine receives its lane and result slot as parameters
		// (never capturing s or the lane array), so ownership of exactly
		// one lane transfers to exactly one goroutine — the laneconfine
		// contract the parallel datapath depends on.
		go func(i int, ln *lane, batch []Request, errp *error) {
			defer wg.Done()
			for _, r := range batch {
				if err := ln.sorter.Insert(r.Tag, r.Payload); err != nil {
					*errp = fmt.Errorf("sharded: lane %d: insert tag %d: %w", i, r.Tag, err)
					return
				}
				ln.inserts++
			}
		}(i, s.lanes[i], batch, &errs[i])
	}
	wg.Wait()
	// Deterministic post-processing in lane order: first error by lane
	// index wins, heads refresh lowest lane first.
	for i := range s.lanes {
		if len(perLane[i]) == 0 {
			continue
		}
		if delta := s.lanes[i].clock.Now() - starts[i]; delta > maxLaneCycles {
			maxLaneCycles = delta
		}
		s.refreshHead(i)
	}
	s.batches++
	for _, e := range errs {
		if e != nil {
			// A failed lane stopped mid-batch; recount from the lanes.
			s.ResyncHeads()
			return maxLaneCycles, e
		}
	}
	s.n += len(reqs)
	return maxLaneCycles, nil
}

// PeekMin returns the smallest stored tag without removing it: one read
// of the select-tree root, then the winning lane's register-cached head.
func (s *ShardedSorter) PeekMin() (taglist.Entry, bool) {
	w := s.tree.min()
	if !w.valid {
		return taglist.Entry{}, false
	}
	return s.lanes[w.lane].sorter.PeekMin()
}

// ExtractMin removes and returns the globally smallest tag: the select
// tree names the winning lane, the lane serves its head in its fixed
// window, and the leaf's root path is replayed — fixed time in both
// occupancy and lane count.
func (s *ShardedSorter) ExtractMin() (taglist.Entry, error) {
	w := s.tree.min()
	if !w.valid {
		return taglist.Entry{}, taglist.ErrEmpty
	}
	e, err := s.lanes[w.lane].sorter.ExtractMin()
	if err != nil {
		return taglist.Entry{}, fmt.Errorf("sharded: lane %d: %w", w.lane, err)
	}
	s.lanes[w.lane].extracts++
	s.n--
	s.refreshHead(w.lane)
	return e, nil
}

// InsertExtractMin performs the paper's simultaneous operation across
// the shard: the global minimum departs and the new tag enters in the
// same window. When both map to the same lane the lane's native
// combined 4-cycle window is used; otherwise the departing lane's
// extract and the entering lane's insert proceed in parallel clock
// domains (cost: max of the two, like hardware). As in the single-lane
// circuit, the departing head is committed first, so it is served even
// if the incoming tag is smaller.
func (s *ShardedSorter) InsertExtractMin(tag, payload int) (taglist.Entry, error) {
	if err := s.checkTag(tag); err != nil {
		return taglist.Entry{}, err
	}
	w := s.tree.min()
	if !w.valid {
		return taglist.Entry{}, taglist.ErrEmpty
	}
	in := s.LaneFor(tag)
	if in == w.lane {
		e, err := s.lanes[in].sorter.InsertExtractMin(tag, payload)
		if err != nil {
			return taglist.Entry{}, fmt.Errorf("sharded: lane %d: %w", in, err)
		}
		s.lanes[in].inserts++
		s.lanes[in].extracts++
		s.combined++
		s.refreshHead(in)
		return e, nil
	}
	e, err := s.lanes[w.lane].sorter.ExtractMin()
	if err != nil {
		return taglist.Entry{}, fmt.Errorf("sharded: lane %d: %w", w.lane, err)
	}
	s.lanes[w.lane].extracts++
	if err := s.lanes[in].sorter.Insert(tag, payload); err != nil {
		// The extract already committed (hardware serves the head at
		// window start); reflect it before surfacing the insert error.
		s.n--
		s.refreshHead(w.lane)
		return taglist.Entry{}, fmt.Errorf("sharded: lane %d: %w", in, err)
	}
	s.lanes[in].inserts++
	s.combined++
	s.refreshHead(w.lane)
	s.refreshHead(in)
	return e, nil
}

// Remove unlinks the oldest stored entry matching (tag, payload): the
// partition names the owning lane, which runs the single-lane dynamic
// remove in its own clock domain. Returns (false, nil) when no matching
// entry is stored.
func (s *ShardedSorter) Remove(tag, payload int) (bool, error) {
	if err := s.checkTag(tag); err != nil {
		return false, err
	}
	i := s.LaneFor(tag)
	found, err := s.lanes[i].sorter.Remove(tag, payload)
	if err != nil {
		return false, fmt.Errorf("sharded: lane %d: %w", i, err)
	}
	if !found {
		return false, nil
	}
	s.lanes[i].removes++
	s.n--
	s.refreshHead(i)
	return true, nil
}

// Rerank moves the oldest stored entry matching (tag, payload) to
// newTag. When both tags map to the same lane the lane's native rerank
// (remove + reinsert in two windows) runs; across lanes the source
// lane's remove and the destination lane's insert proceed in their own
// clock domains. The destination's capacity is validated before the
// remove commits, so short of a detected fault a rerank either
// completes or leaves the shard unchanged. Returns (false, nil) when no
// matching entry is stored.
func (s *ShardedSorter) Rerank(tag, payload, newTag int) (bool, error) {
	if err := s.checkTag(tag); err != nil {
		return false, err
	}
	if err := s.checkTag(newTag); err != nil {
		return false, err
	}
	src, dst := s.LaneFor(tag), s.LaneFor(newTag)
	if src == dst {
		found, err := s.lanes[src].sorter.Rerank(tag, payload, newTag)
		if err != nil {
			return false, fmt.Errorf("sharded: lane %d: %w", src, err)
		}
		if !found {
			return false, nil
		}
		s.lanes[src].reranks++
		s.refreshHead(src)
		return true, nil
	}
	if s.lanes[dst].sorter.Len() >= s.cfg.LaneCapacity {
		return false, fmt.Errorf("sharded: lane %d: rerank destination: %w", dst, taglist.ErrFull)
	}
	found, err := s.lanes[src].sorter.Remove(tag, payload)
	if err != nil {
		return false, fmt.Errorf("sharded: lane %d: %w", src, err)
	}
	if !found {
		return false, nil
	}
	if err := s.lanes[dst].sorter.Insert(newTag, payload); err != nil {
		// Capacity was pre-checked, so only a detected fault lands here;
		// reflect the committed remove before surfacing it.
		s.n--
		s.refreshHead(src)
		return false, fmt.Errorf("sharded: lane %d: rerank reinsert: %w", dst, err)
	}
	s.lanes[src].reranks++
	s.refreshHead(src)
	s.refreshHead(dst)
	return true, nil
}

// Drain removes all tags in sorted order (verification helper).
func (s *ShardedSorter) Drain() ([]taglist.Entry, error) {
	out := make([]taglist.Entry, 0, s.n)
	for s.n > 0 {
		e, err := s.ExtractMin()
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Snapshot returns the stored entries in service order without
// modifying state: a k-way merge of the per-lane snapshots by tag
// (cross-lane ties cannot occur).
func (s *ShardedSorter) Snapshot() ([]taglist.Entry, error) {
	perLane := make([][]taglist.Entry, len(s.lanes))
	for i, l := range s.lanes {
		snap, err := l.sorter.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("sharded: lane %d: %w", i, err)
		}
		perLane[i] = snap
	}
	out := make([]taglist.Entry, 0, s.n)
	for {
		best, bestLane := 0, -1
		for i, snap := range perLane {
			if len(snap) == 0 {
				continue
			}
			if bestLane < 0 || snap[0].Tag < best {
				best, bestLane = snap[0].Tag, i
			}
		}
		if bestLane < 0 {
			return out, nil
		}
		out = append(out, perLane[bestLane][0])
		perLane[bestLane] = perLane[bestLane][1:]
	}
}

// CheckInvariants verifies the cross-lane structural invariants on top
// of each lane's own core.CheckInvariants:
//
//   - every lane's live tags belong to that lane under the partition;
//   - the select-tree root names the true global minimum;
//   - the occupancy count equals the sum of lane occupancies.
func (s *ShardedSorter) CheckInvariants() error {
	total := 0
	var trueMin headEntry
	for i, l := range s.lanes {
		if err := l.sorter.CheckInvariants(); err != nil {
			return fmt.Errorf("sharded: lane %d: %w", i, err)
		}
		snap, err := l.sorter.Snapshot()
		if err != nil {
			return fmt.Errorf("sharded: lane %d: %w", i, err)
		}
		for _, e := range snap {
			if got := s.LaneFor(e.Tag); got != i {
				return fmt.Errorf("sharded: %w: tag %d stored in lane %d, partition owner is %d",
					hwsim.ErrCorrupt, e.Tag, i, got)
			}
		}
		total += l.sorter.Len()
		if head, ok := l.sorter.PeekMin(); ok {
			trueMin = better(trueMin, headEntry{tag: head.Tag, lane: i, valid: true})
		}
	}
	if total != s.n {
		return fmt.Errorf("sharded: %w: lanes hold %d entries, Len is %d", hwsim.ErrCorrupt, total, s.n)
	}
	root := s.tree.min()
	if root.valid != trueMin.valid || (root.valid && (root.tag != trueMin.tag || root.lane != trueMin.lane)) {
		return fmt.Errorf("sharded: %w: select tree root (lane %d tag %d valid %v) disagrees with lane heads (lane %d tag %d valid %v)",
			hwsim.ErrCorrupt, root.lane, root.tag, root.valid, trueMin.lane, trueMin.tag, trueMin.valid)
	}
	return nil
}

// StatsSnapshot returns aggregated traffic with per-lane breakdowns.
func (s *ShardedSorter) StatsSnapshot() Stats {
	st := Stats{
		Lanes:          len(s.lanes),
		Combined:       s.combined,
		Batches:        s.batches,
		SelectCompares: s.tree.compares,
		SelectDepth:    s.tree.depth(),
		LaneLens:       make([]int, len(s.lanes)),
		LaneInserts:    make([]uint64, len(s.lanes)),
		LaneExtracts:   make([]uint64, len(s.lanes)),
		PerLane:        make([]core.Stats, len(s.lanes)),
	}
	for i, l := range s.lanes {
		cs := l.sorter.StatsSnapshot()
		st.PerLane[i] = cs
		st.LaneLens[i] = l.sorter.Len()
		st.LaneInserts[i] = l.inserts
		st.LaneExtracts[i] = l.extracts
		st.Inserts += l.inserts
		st.Extracts += l.extracts
		st.Removes += l.removes
		st.Reranks += l.reranks
		cyc := l.clock.Now() - l.cycleBase
		st.SumLaneCycles += cyc
		if cyc > st.MaxLaneCycles {
			st.MaxLaneCycles = cyc
		}
	}
	return st
}

// ResetStats zeroes all traffic counters, including each lane fabric's
// region/bank counters. Lane clocks keep running — cycle gauges are
// reported relative to the reset point, like free-running hardware
// counters snapshotted at interval boundaries.
func (s *ShardedSorter) ResetStats() {
	s.combined, s.batches, s.tree.compares = 0, 0, 0
	for _, l := range s.lanes {
		l.inserts, l.extracts, l.removes, l.reranks = 0, 0, 0, 0
		l.cycleBase = l.clock.Now()
		l.fab.ResetStats()
		l.sorter.ResetStats()
	}
}
