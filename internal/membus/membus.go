// Package membus models the banked memory fabric behind the tag
// sort/retrieve circuit: every word-addressed memory of one clock
// domain is a Region provisioned from a shared Fabric, and all
// functional datapath traffic flows through the Region's request Port,
// which schedules each access onto the physical bank ports cycle by
// cycle.
//
// The point of the fabric is that the paper's fixed operation windows
// are derived, not asserted. The tag store's 4-cycle 2-read/2-write
// insert window (Figs. 9–10) falls out of scheduling four accesses on
// a single shared SDR port; provisioning the same region with split
// read/write ports (QDRII) closes the window in 2 cycles, and adding a
// one-cycle bank activation (RLDRAM) yields 3 — exactly the §III-C
// technology table, as emergent properties of port arbitration. A
// conflicting access does not silently fit the window: it stalls, and
// the stall is visible in the region and bank counters.
//
// Two access regimes exist. Outside a window every access is
// sequential: it occupies its port for the access latency and advances
// the clock by the same amount (a plain single-port SRAM, so cycle
// accounting matches the pre-fabric model for un-windowed traffic).
// Inside a BeginWindow/EndWindow pair the clock freezes at the window
// base while accesses are scheduled onto ports — an access starts at
// the first cycle its bank port is free — and EndWindow advances the
// clock by the schedule's span.
//
// An access costs only the scheduling arithmetic, one set of bank
// counters, and the data word. Traffic is counted once, per bank: a
// region's read, write, busy-cycle and stall counters are the sums over
// its banks, and only the conflict and window counters are kept per
// region. A register region is counted and returned before any port
// arbitration. A record of the access is built only when an Observer
// is installed and the region is not a register region: the fabric
// fills its one Access in place and hands the observer a pointer to
// it, valid only during that Observe (and, for a write, AfterWrite)
// call. The hot path allocates nothing either way, the fault layer
// interposes through the Observer seam with bank/port/cycle
// coordinates, and the metrics layer reads the counters after the
// fact.
package membus

import (
	"fmt"

	"wfqsort/internal/hwsim"
)

// PortMode selects how each bank's access ports are provisioned.
type PortMode int

const (
	// PortShared gives each bank one port serving both reads and
	// writes — single-data-rate SRAM. Accesses to the same bank
	// serialize regardless of direction.
	PortShared PortMode = iota + 1
	// PortSplit gives each bank an independent read port (port A) and
	// write port (port B) — QDRII-style dual-port memory. A read and a
	// write to the same bank proceed in the same cycle; two reads (or
	// two writes) still serialize.
	PortSplit
)

func (m PortMode) String() string {
	switch m {
	case PortShared:
		return "shared"
	case PortSplit:
		return "split"
	default:
		return "unknown"
	}
}

// Port indices within a bank. On a PortShared bank every access uses
// PortA; on a PortSplit bank reads use PortA and writes use PortB.
const (
	PortA = 0 // read port (or the shared port)
	PortB = 1 // write port (PortSplit only)
)

// RegionConfig describes the geometry, banking, and timing of one
// fabric region.
type RegionConfig struct {
	// Name identifies the region in reports and fault campaigns
	// (e.g. "tag-storage", "translation-table", "tree-level-2").
	Name string
	// Depth is the number of addressable words.
	Depth int
	// WordBits is the width of one word in bits (1..64). Written
	// values are masked to this width.
	WordBits int
	// Banks is the number of interleaved banks (addr mod Banks selects
	// the bank). Defaults to 1: one monolithic array, the silicon's
	// external SRAM.
	Banks int
	// Ports selects per-bank port provisioning (default PortShared).
	Ports PortMode
	// ReadCycles / WriteCycles is how long one access occupies its
	// port. Default 1 when zero.
	ReadCycles  int
	WriteCycles int
	// ActivateCycles is a per-window bank-activation overhead: the
	// first access of a window must wait this many cycles after the
	// window opens before its bank port is usable (RLDRAM-style row
	// activation margin). Zero for SRAM.
	ActivateCycles int
	// Register marks a zero-latency flip-flop region: accesses are
	// counted but cost no cycles, bypass bank arbitration, and are not
	// offered to the fault Observer (the fault model targets memories,
	// not combinational register banks).
	Register bool
}

// Stats is one region's (or, summed, one fabric's) traffic and
// arbitration counters. Reads, Writes, Cycles and StallCycles are sums
// over the region's BankStats; Conflicts and the window counters are
// kept per region.
type Stats struct {
	Reads  uint64 // completed read accesses (sum of BankStats.Reads)
	Writes uint64 // completed write accesses (sum of BankStats.Writes)
	// Cycles is the port occupancy consumed by accesses (latency
	// cycles, excluding stalls) — the hwsim.AccessStats cycle
	// counter, and the sum of BankStats.BusyCycles.
	Cycles uint64
	// StallCycles is the total cycles accesses spent waiting for a
	// busy bank port (or bank activation) inside operation windows —
	// the sum of BankStats.StallCycles.
	StallCycles uint64
	// Conflicts counts accesses that stalled at all: each one is a
	// same-bank port collision resolved by the arbiter.
	Conflicts uint64
	// Windows / WindowCycles count closed operation windows and the
	// total cycles they spanned.
	Windows      uint64
	WindowCycles uint64
}

func (s *Stats) add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Cycles += o.Cycles
	s.StallCycles += o.StallCycles
	s.Conflicts += o.Conflicts
	s.Windows += o.Windows
	s.WindowCycles += o.WindowCycles
}

// Accesses returns the total read and write count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// AccessStats converts to the hwsim traffic counter triple.
func (s Stats) AccessStats() hwsim.AccessStats {
	return hwsim.AccessStats{Reads: s.Reads, Writes: s.Writes, Cycles: s.Cycles}
}

// BankStats is one bank's share of the region traffic, and the only
// place that traffic is counted: the region's Stats sum these.
type BankStats struct {
	Reads       uint64
	Writes      uint64
	BusyCycles  uint64 // port occupancy (latency cycles) on this bank
	StallCycles uint64 // wait cycles charged to accesses on this bank
}

// Access is one functional memory access as scheduled by the arbiter.
// The fabric owns a single record and refills it for each observed
// access: a pointer passed to an Observer is valid only for the
// duration of the call, and an observer that needs the record later
// must copy it.
type Access struct {
	Region *Region
	Addr   int
	Bank   int // bank index (addr mod Banks)
	Port   int // PortA or PortB
	Write  bool
	// Cycle is the access's scheduled start cycle; inside a window
	// this is the window base plus the arbitration offset.
	Cycle uint64
	// Stall is how many cycles the access waited for its port.
	Stall uint64
	// Seq is the fabric-wide access sequence number (1-based).
	Seq uint64
}

// Observer interposes on a fabric's functional accesses — the fault
// injection seam. It is called synchronously for every non-register
// access with the scheduled record; register regions are skipped.
type Observer interface {
	// Observe runs before the data phase of the access. For a read,
	// the returned xor corrupts the data in flight (a transient
	// sense/bus error); for a write it is ignored.
	Observe(r *Region, a *Access) (xor uint64, err error)
	// AfterWrite runs after a write has committed to the array,
	// letting stuck-at cells re-assert themselves over fresh data.
	AfterWrite(r *Region, a *Access) error
}

// Fabric is one clock domain's memory fabric. Not safe for concurrent
// use: like the circuits above it, it models a single synchronous
// pipeline.
type Fabric struct {
	clock   *hwsim.Clock
	regions []*Region
	byName  map[string]*Region
	obs     Observer
	acc     Access // the record offered to obs, refilled per access
	seq     uint64 // accesses so far, observed or not
}

// New builds an empty fabric over the given clock domain. A nil clock
// gets a private clock (standalone component tests).
func New(clock *hwsim.Clock) *Fabric {
	if clock == nil {
		clock = &hwsim.Clock{}
	}
	return &Fabric{clock: clock, byName: map[string]*Region{}}
}

// Clock returns the fabric's clock domain.
func (f *Fabric) Clock() *hwsim.Clock { return f.clock }

// SetObserver installs (or, with nil, removes) the fabric's access
// observer. Unlike the old construction-time store hook, an observer
// may attach before or after the regions are provisioned.
func (f *Fabric) SetObserver(o Observer) { f.obs = o }

// Observer returns the installed access observer, or nil. Wrapping
// observers (e.g. a chaos staller chaining a fault injector) use it to
// take over the seam without losing the previous occupant.
func (f *Fabric) Observer() Observer { return f.obs }

// Provision adds a region to the fabric and returns it.
func (f *Fabric) Provision(cfg RegionConfig) (*Region, error) {
	if cfg.Depth <= 0 {
		return nil, fmt.Errorf("membus: region %q: depth %d must be positive", cfg.Name, cfg.Depth)
	}
	if cfg.WordBits <= 0 || cfg.WordBits > 64 {
		return nil, fmt.Errorf("membus: region %q: word width %d out of range 1..64", cfg.Name, cfg.WordBits)
	}
	if cfg.Banks == 0 {
		cfg.Banks = 1
	}
	if cfg.Banks < 0 || cfg.Banks > cfg.Depth {
		return nil, fmt.Errorf("membus: region %q: %d banks out of range 1..%d", cfg.Name, cfg.Banks, cfg.Depth)
	}
	if cfg.Ports == 0 {
		cfg.Ports = PortShared
	}
	if cfg.Ports != PortShared && cfg.Ports != PortSplit {
		return nil, fmt.Errorf("membus: region %q: unknown port mode %d", cfg.Name, int(cfg.Ports))
	}
	if cfg.ReadCycles == 0 {
		cfg.ReadCycles = 1
	}
	if cfg.WriteCycles == 0 {
		cfg.WriteCycles = 1
	}
	if cfg.ReadCycles < 0 || cfg.WriteCycles < 0 || cfg.ActivateCycles < 0 {
		return nil, fmt.Errorf("membus: region %q: negative cycle cost", cfg.Name)
	}
	if _, dup := f.byName[cfg.Name]; dup {
		return nil, fmt.Errorf("membus: region %q already provisioned", cfg.Name)
	}
	var mask uint64
	if cfg.WordBits == 64 {
		mask = ^uint64(0)
	} else {
		mask = (1 << uint(cfg.WordBits)) - 1
	}
	r := &Region{
		f:        f,
		cfg:      cfg,
		mask:     mask,
		words:    make([]uint64, cfg.Depth),
		banks:    make([]bankState, cfg.Banks),
		readLat:  uint64(cfg.ReadCycles),
		writeLat: uint64(cfg.WriteCycles),
	}
	if cfg.Ports == PortSplit {
		r.writePort = PortB
	}
	r.port.r = r
	f.regions = append(f.regions, r)
	f.byName[cfg.Name] = r
	return r, nil
}

// Region returns the named region, or nil.
func (f *Fabric) Region(name string) *Region { return f.byName[name] }

// Regions returns the provisioned regions in provisioning order.
func (f *Fabric) Regions() []*Region {
	out := make([]*Region, len(f.regions))
	copy(out, f.regions)
	return out
}

// StatsSnapshot aggregates traffic and arbitration counters over all
// regions.
func (f *Fabric) StatsSnapshot() Stats {
	var out Stats
	for _, r := range f.regions {
		out.add(r.StatsSnapshot())
	}
	return out
}

// ResetStats zeroes every region's counters (contents untouched).
func (f *Fabric) ResetStats() {
	for _, r := range f.regions {
		r.ResetStats()
	}
}

// bankState tracks one bank's two port schedules and counters.
type bankState struct {
	freeAt [2]uint64 // cycle at which each port is next free
	stats  BankStats
}

// Region is one word-addressed memory of the fabric. Functional
// traffic goes through Port(); Peek/Poke are the uncounted
// verification/debug ports, mirroring the silicon's observation pins.
type Region struct {
	f     *Fabric
	cfg   RegionConfig
	mask  uint64
	words []uint64
	banks []bankState
	port  Port

	// Access timing, fixed at Provision: per-direction port occupancy
	// and the port a write uses (PortA, or PortB on a PortSplit bank).
	readLat   uint64
	writeLat  uint64
	writePort int

	// The region-only counters; traffic is counted per bank.
	conflicts    uint64
	windows      uint64
	windowCycles uint64

	windowActive bool
	windowBase   uint64
	windowMaxEnd uint64
}

// Config returns the region's configuration.
func (r *Region) Config() RegionConfig { return r.cfg }

// Name returns the region name.
func (r *Region) Name() string { return r.cfg.Name }

// Depth returns the number of addressable words.
func (r *Region) Depth() int { return r.cfg.Depth }

// WordBits returns the word width in bits.
func (r *Region) WordBits() int { return r.cfg.WordBits }

// Bits returns the storage capacity in bits (depth × word width).
func (r *Region) Bits() int { return r.cfg.Depth * r.cfg.WordBits }

// Banks returns the bank count.
func (r *Region) Banks() int { return len(r.banks) }

// Port returns the region's functional request port — the only legal
// datapath access path.
func (r *Region) Port() *Port { return &r.port }

// StatsSnapshot returns the region counters: the bank traffic summed,
// plus the region's conflict and window counters.
func (r *Region) StatsSnapshot() Stats {
	s := Stats{Conflicts: r.conflicts, Windows: r.windows, WindowCycles: r.windowCycles}
	for i := range r.banks {
		b := &r.banks[i].stats
		s.Reads += b.Reads
		s.Writes += b.Writes
		s.Cycles += b.BusyCycles
		s.StallCycles += b.StallCycles
	}
	return s
}

// AccessStats returns the hwsim-compatible traffic triple.
func (r *Region) AccessStats() hwsim.AccessStats { return r.StatsSnapshot().AccessStats() }

// BankStats returns a copy of the per-bank counters.
func (r *Region) BankStats() []BankStats {
	out := make([]BankStats, len(r.banks))
	for i := range r.banks {
		out[i] = r.banks[i].stats
	}
	return out
}

// ResetStats zeroes the region and bank counters without touching
// memory contents or port schedules.
func (r *Region) ResetStats() {
	r.conflicts, r.windows, r.windowCycles = 0, 0, 0
	for i := range r.banks {
		r.banks[i].stats = BankStats{}
	}
}

// BeginWindow opens an operation window: the clock freezes at the
// current cycle and subsequent accesses to this region are scheduled
// onto bank ports relative to it. Windows must not nest per region.
func (r *Region) BeginWindow() {
	if r.windowActive {
		panic(fmt.Sprintf("membus: region %q: nested operation window", r.cfg.Name))
	}
	r.windowActive = true
	r.windowBase = r.f.clock.Now()
	r.windowMaxEnd = r.windowBase
}

// EndWindow closes the window, advances the clock by the span of the
// scheduled accesses, and returns that span in cycles. A window whose
// accesses all fit behind already-free ports spans zero cycles.
func (r *Region) EndWindow() int {
	if !r.windowActive {
		panic(fmt.Sprintf("membus: region %q: EndWindow without BeginWindow", r.cfg.Name))
	}
	r.windowActive = false
	span := r.windowMaxEnd - r.windowBase
	r.f.clock.Advance(span)
	r.windows++
	r.windowCycles += span
	return int(span)
}

// InWindow reports whether an operation window is open.
func (r *Region) InWindow() bool { return r.windowActive }

// checkAddr is small enough to inline into the access paths; the
// error is built out of line.
func (r *Region) checkAddr(op string, addr int) error {
	if uint(addr) >= uint(len(r.words)) {
		return r.addrError(op, addr)
	}
	return nil
}

//go:noinline
func (r *Region) addrError(op string, addr int) error {
	return fmt.Errorf("%w: %s %q[%d], depth %d", hwsim.ErrAddressRange, op, r.cfg.Name, addr, r.cfg.Depth)
}

// schedule arbitrates one access onto its bank port. It charges the
// clock in sequential mode; in window mode the clock is charged
// collectively by EndWindow. A register access is counted and returns
// before arbitration. It returns the fabric's access record, filled
// in, when the access is offered to an Observer, and nil otherwise.
func (r *Region) schedule(addr int, write bool) *Access {
	bank := 0
	if len(r.banks) > 1 {
		bank = addr % len(r.banks)
	}
	b := &r.banks[bank]
	f := r.f
	f.seq++
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	if r.cfg.Register {
		return nil
	}
	port, lat := PortA, r.readLat
	if write {
		port, lat = r.writePort, r.writeLat
	}
	b.stats.BusyCycles += lat
	var start, stall uint64
	if r.windowActive {
		// Every windowed access waits out the bank activation; waiting
		// for the port beyond that is a stall.
		earliest := r.windowBase + uint64(r.cfg.ActivateCycles)
		start = earliest
		if b.freeAt[port] > start {
			start = b.freeAt[port]
		}
		stall = start - earliest
		end := start + lat
		b.freeAt[port] = end
		if end > r.windowMaxEnd {
			r.windowMaxEnd = end
		}
		if stall > 0 {
			b.stats.StallCycles += stall
			r.conflicts++
		}
	} else {
		start = f.clock.Now()
		b.freeAt[port] = start + lat
		f.clock.Advance(lat)
	}
	if f.obs == nil {
		return nil
	}
	f.acc = Access{Region: r, Addr: addr, Bank: bank, Port: port, Write: write, Cycle: start, Stall: stall, Seq: f.seq}
	return &f.acc
}

// Peek returns the word at addr without counting an access — the
// verification/debug port, not a functional path.
func (r *Region) Peek(addr int) (uint64, error) {
	if err := r.checkAddr("peek", addr); err != nil {
		return 0, err
	}
	return r.words[addr], nil
}

// Poke stores val at addr without counting an access (test setup and
// fault injection only).
func (r *Region) Poke(addr int, val uint64) error {
	if err := r.checkAddr("poke", addr); err != nil {
		return err
	}
	r.words[addr] = val & r.mask
	return nil
}

// Wipe zeroes the contents without touching the counters — the
// flash-style bulk initialization of paper §III-A, used by recovery
// paths that must not perturb the traffic accounting they repair.
func (r *Region) Wipe() {
	for i := range r.words {
		r.words[i] = 0
	}
}

// Clear zeroes contents and counters.
func (r *Region) Clear() {
	r.Wipe()
	r.ResetStats()
}

// Port is a region's functional request port: every access passes the
// arbiter and the observer.
type Port struct {
	r *Region
}

// Region returns the region this port belongs to.
func (p *Port) Region() *Region { return p.r }

// Read performs one functional read through the arbiter.
func (p *Port) Read(addr int) (uint64, error) {
	r := p.r
	if err := r.checkAddr("read", addr); err != nil {
		return 0, err
	}
	var xor uint64
	if a := r.schedule(addr, false); a != nil {
		x, err := r.f.obs.Observe(r, a)
		if err != nil {
			return 0, err
		}
		xor = x
	}
	return r.words[addr] ^ xor, nil
}

// Write performs one functional write through the arbiter.
func (p *Port) Write(addr int, val uint64) error {
	r := p.r
	if err := r.checkAddr("write", addr); err != nil {
		return err
	}
	a := r.schedule(addr, true)
	if a != nil {
		if _, err := r.f.obs.Observe(r, a); err != nil {
			return err
		}
	}
	r.words[addr] = val & r.mask
	if a != nil {
		if err := r.f.obs.AfterWrite(r, a); err != nil {
			return err
		}
	}
	return nil
}
