// Package taglist implements the tag storage memory: an SRAM-backed
// linked list holding every finishing tag in sorted order, interleaved
// with an "empty" list of free links (paper §III-C, Figs. 9–10).
//
// The head of the list is always the smallest tag, cached in registers so
// the packet buffer read control can access it instantly. Entering a new
// tag takes exactly four clock cycles — two reads and two writes — and a
// simultaneous insert+extract fits the same four-cycle window by reusing
// the departing head's link for the incoming tag.
package taglist

import (
	"errors"
	"fmt"

	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
)

// Sentinel errors for list-state violations.
var (
	ErrFull  = errors.New("taglist: tag storage memory full")
	ErrEmpty = errors.New("taglist: tag storage memory empty")
)

// WindowCycles is the fixed clock-cycle budget of one list operation on
// the baseline single-data-rate SRAM (2 reads + 2 writes, paper Fig. 9).
// Every operation — insert, extract, or simultaneous insert+extract —
// completes within one window; the rest of the scheduler synchronizes
// around it.
const WindowCycles = 4

// MemTech selects the tag-store memory technology. The paper's
// implementation uses external SDR SRAM and notes that "QDRII and RLD
// RAM versions are also under development" (§III-C); those parts change
// only the cycle cost of the fixed window, not the access pattern.
type MemTech int

// Tag-store memory technologies.
const (
	// TechSDR is single-data-rate SRAM on one port: the 2R+2W window
	// takes 4 cycles (the paper's implementation).
	TechSDR MemTech = iota + 1
	// TechQDRII has independent read and write ports at double data
	// rate: the two reads and two writes overlap, closing the window in
	// 2 cycles.
	TechQDRII
	// TechRLDRAM is banked reduced-latency DRAM: near-SRAM random
	// access with an extra cycle of margin for bank scheduling —
	// 3 cycles per window.
	TechRLDRAM
)

func (m MemTech) String() string {
	switch m {
	case TechSDR:
		return "SDR SRAM"
	case TechQDRII:
		return "QDRII SRAM"
	case TechRLDRAM:
		return "RLDRAM"
	default:
		return "unknown"
	}
}

// WindowCyclesFor returns the clock cycles one 2R+2W operation window
// occupies on this memory technology.
func (m MemTech) WindowCyclesFor() (int, error) {
	switch m {
	case TechSDR:
		return 4, nil
	case TechQDRII:
		return 2, nil
	case TechRLDRAM:
		return 3, nil
	default:
		return 0, fmt.Errorf("taglist: unknown memory technology %d", int(m))
	}
}

// Config sizes the tag storage memory.
type Config struct {
	// Capacity is the number of links (packets in flight). The silicon
	// uses external SRAM sized for 30 million; simulations choose less.
	Capacity int
	// TagBits is the width of stored tag values.
	TagBits int
	// PayloadBits is the width of the per-link payload (the packet
	// buffer pointer). Defaults to 24 when zero.
	PayloadBits int
	// Tech is the tag-store memory technology (default TechSDR).
	Tech MemTech
	// Fabric, when non-nil, is the memory fabric the tag storage region
	// is provisioned from (the shared clock domain of one sorter lane).
	Fabric *membus.Fabric
	// Clock, when non-nil and Fabric is nil, is the clock domain of the
	// private fabric built for standalone use.
	Clock *hwsim.Clock
}

// Entry is one link's visible content.
type Entry struct {
	Tag     int
	Payload int
	Addr    int // physical link address
}

// List is the tag storage memory. Not safe for concurrent use.
type List struct {
	cfg          Config
	addrBits     int
	windowCycles int

	// Link word layout, fixed at New: [payload | next | tag], low bits
	// first.
	tagMask      uint64
	nextMask     uint64
	nextShift    uint
	payloadShift uint

	reg  *membus.Region // backing region (debug ports, bulk wipe)
	port *membus.Port   // functional port through the fabric arbiter

	// Head registers: the smallest tag's link, cached so service of the
	// minimum never waits on a lookup (the "sort model" advantage,
	// paper §II-C).
	headAddr    int
	headTag     int
	headPayload int
	headNext    int
	headValid   bool

	// Empty-list head register (paper Fig. 10).
	emptyHead  int
	emptyValid bool

	// Initialization counter: addresses [0, initCounter) have been used
	// at least once; beyond it lies never-used memory (paper §III-C).
	initCounter int

	count   int
	windows uint64 // operation windows consumed
}

// Link word packing: [payload | next | tag], low bits first.
func (l *List) pack(tag, next, payload int) uint64 {
	return uint64(tag) | uint64(next)<<l.nextShift | uint64(payload)<<l.payloadShift
}

func (l *List) unpack(w uint64) (tag, next, payload int) {
	tag = int(w & l.tagMask)
	next = int(w >> l.nextShift & l.nextMask)
	payload = int(w >> l.payloadShift)
	return tag, next, payload
}

// New builds an empty tag storage memory.
func New(cfg Config) (*List, error) {
	if cfg.Capacity < 2 {
		return nil, fmt.Errorf("taglist: capacity %d must be at least 2", cfg.Capacity)
	}
	if cfg.TagBits <= 0 || cfg.TagBits > 26 {
		return nil, fmt.Errorf("taglist: tag bits %d out of range 1..26", cfg.TagBits)
	}
	if cfg.PayloadBits == 0 {
		cfg.PayloadBits = 24
	}
	if cfg.PayloadBits < 0 || cfg.PayloadBits > 32 {
		return nil, fmt.Errorf("taglist: payload bits %d out of range 0..32", cfg.PayloadBits)
	}
	if cfg.Tech == 0 {
		cfg.Tech = TechSDR
	}
	windowCycles, err := cfg.Tech.WindowCyclesFor()
	if err != nil {
		return nil, err
	}
	addrBits := 1
	for 1<<uint(addrBits) < cfg.Capacity {
		addrBits++
	}
	wordBits := cfg.TagBits + addrBits + cfg.PayloadBits
	if wordBits > 64 {
		return nil, fmt.Errorf("taglist: link word of %d bits exceeds 64 (tag %d + addr %d + payload %d)",
			wordBits, cfg.TagBits, addrBits, cfg.PayloadBits)
	}
	fab := cfg.Fabric
	if fab == nil {
		fab = membus.New(cfg.Clock)
	}
	rc := membus.RegionConfig{
		Name:     "tag-storage",
		Depth:    cfg.Capacity,
		WordBits: wordBits,
	}
	// Map the memory technology onto fabric port geometry; the window
	// cycle count is then *derived* by the port arbiter rather than
	// charged from the WindowCyclesFor table (which remains the nominal
	// budget the derived schedule is checked against).
	switch cfg.Tech {
	case TechQDRII:
		// Independent read and write ports: reads on port A overlap
		// writes on port B, closing 2R+2W in 2 cycles.
		rc.Ports = membus.PortSplit
	case TechRLDRAM:
		// Split ports plus one cycle of bank-activation margin per
		// window: 2R+2W closes in 3 cycles.
		rc.Ports = membus.PortSplit
		rc.ActivateCycles = 1
	}
	reg, err := fab.Provision(rc)
	if err != nil {
		return nil, fmt.Errorf("taglist: %w", err)
	}
	return &List{
		cfg:          cfg,
		addrBits:     addrBits,
		windowCycles: windowCycles,
		tagMask:      1<<uint(cfg.TagBits) - 1,
		nextMask:     1<<uint(addrBits) - 1,
		nextShift:    uint(cfg.TagBits),
		payloadShift: uint(cfg.TagBits + addrBits),
		reg:          reg,
		port:         reg.Port(),
	}, nil
}

// Len returns the number of stored tags.
func (l *List) Len() int { return l.count }

// Tech returns the configured memory technology.
func (l *List) Tech() MemTech { return l.cfg.Tech }

// WindowCyclesUsed returns the clock cycles one operation window
// occupies on the configured memory technology.
func (l *List) WindowCyclesUsed() int { return l.windowCycles }

// Capacity returns the number of links.
func (l *List) Capacity() int { return l.cfg.Capacity }

// Windows returns the number of 4-cycle operation windows consumed.
func (l *List) Windows() uint64 { return l.windows }

// MemStats returns the backing region's access counters.
func (l *List) MemStats() hwsim.AccessStats { return l.reg.AccessStats() }

// ResetStats zeroes window and memory counters.
func (l *List) ResetStats() {
	l.windows = 0
	l.reg.ResetStats()
}

// PeekMin returns the smallest tag without removing it. It costs no
// memory access: the head link is register-cached (paper §II-C — service
// depends only on T_r, "both fixed and faster than performing a lookup").
func (l *List) PeekMin() (Entry, bool) {
	if !l.headValid {
		return Entry{}, false
	}
	return Entry{Tag: l.headTag, Payload: l.headPayload, Addr: l.headAddr}, true
}

// allocate returns a free link address following the initialization-
// counter-then-empty-list policy of paper §III-C. It may cost one read
// (fetching the empty list head's forward pointer).
func (l *List) allocate() (int, error) {
	if l.initCounter < l.cfg.Capacity {
		addr := l.initCounter
		l.initCounter++
		return addr, nil
	}
	if !l.emptyValid {
		return 0, ErrFull
	}
	addr := l.emptyHead
	w, err := l.port.Read(addr)
	if err != nil {
		return 0, err
	}
	_, next, _ := l.unpack(w)
	if next == addr {
		l.emptyValid = false // self-link marks the tail of the empty list
	} else {
		l.emptyHead = next
	}
	return addr, nil
}

// free pushes addr onto the empty list (one write: the freed link's
// forward pointer is redirected; its tag field is left unchanged, as the
// paper notes — "the link itself is left unchanged").
func (l *List) free(addr int) error {
	next := addr // self-link = tail marker
	if l.emptyValid {
		next = l.emptyHead
	}
	if err := l.port.Write(addr, l.pack(0, next, 0)); err != nil {
		return err
	}
	l.emptyHead = addr
	l.emptyValid = true
	return nil
}

// InsertHead inserts a tag that becomes the new minimum (or the first tag
// in an empty list). Used when the tree search found no smaller tag.
func (l *List) InsertHead(tag, payload int) (int, error) {
	if err := l.checkTagPayload(tag, payload); err != nil {
		return 0, err
	}
	l.windows++
	l.reg.BeginWindow()
	defer l.reg.EndWindow()
	addr, err := l.allocate()
	if err != nil {
		return 0, err
	}
	next := addr // tail self-link
	if l.headValid {
		next = l.headAddr
	}
	if err := l.port.Write(addr, l.pack(tag, next, payload)); err != nil {
		return 0, err
	}
	l.headAddr, l.headTag, l.headPayload, l.headNext = addr, tag, payload, next
	l.headValid = true
	l.count++
	return addr, nil
}

// InsertAfter inserts a tag immediately after the link at afterAddr — the
// closest-match position returned by the tree search via the translation
// table. The operation is the paper's Fig. 9 sequence: one read to
// allocate, one read of the predecessor, and two writes.
func (l *List) InsertAfter(tag, payload, afterAddr int) (int, error) {
	if err := l.checkTagPayload(tag, payload); err != nil {
		return 0, err
	}
	if afterAddr < 0 || afterAddr >= l.cfg.Capacity {
		return 0, fmt.Errorf("taglist: predecessor address %d out of range [0,%d)", afterAddr, l.cfg.Capacity)
	}
	if !l.headValid {
		return 0, fmt.Errorf("taglist: InsertAfter(%d) on empty list", afterAddr)
	}
	l.windows++
	l.reg.BeginWindow()
	defer l.reg.EndWindow()
	addr, err := l.allocate()
	if err != nil {
		return 0, err
	}
	// Read the predecessor link (Fig. 9 step 2).
	w, err := l.port.Read(afterAddr)
	if err != nil {
		return 0, err
	}
	ptag, pnext, ppayload := l.unpack(w)
	newNext := pnext
	if pnext == afterAddr { // predecessor was the tail
		newNext = addr // new link becomes the tail (self-link)
	}
	// Write the predecessor with a pointer to the new link (step 3).
	if err := l.port.Write(afterAddr, l.pack(ptag, addr, ppayload)); err != nil {
		return 0, err
	}
	// Write the new link pointing at the predecessor's old successor
	// (step 4).
	if err := l.port.Write(addr, l.pack(tag, newNext, payload)); err != nil {
		return 0, err
	}
	if afterAddr == l.headAddr {
		l.headNext = addr
	}
	l.count++
	return addr, nil
}

// ExtractMin removes and returns the smallest tag. The freed link joins
// the empty list; the new head link is read to refresh the head
// registers. Fits one operation window.
func (l *List) ExtractMin() (Entry, error) {
	if !l.headValid {
		return Entry{}, ErrEmpty
	}
	l.windows++
	l.reg.BeginWindow()
	defer l.reg.EndWindow()
	out := Entry{Tag: l.headTag, Payload: l.headPayload, Addr: l.headAddr}
	freed := l.headAddr
	if l.headNext == freed {
		// Tail self-link: the list is now empty.
		l.headValid = false
	} else {
		w, err := l.port.Read(l.headNext)
		if err != nil {
			return Entry{}, err
		}
		tag, next, payload := l.unpack(w)
		l.headAddr, l.headTag, l.headPayload, l.headNext = l.headNext, tag, payload, next
	}
	if err := l.free(freed); err != nil {
		return Entry{}, err
	}
	l.count--
	return out, nil
}

// InsertAfterExtractMin performs a simultaneous insert and extract in one
// window (paper §III-C): the departing head's link is reused for the
// incoming tag instead of a free-list allocation. afterAddr is the
// insert position for the new tag, which must not be the departing head
// itself (the caller resolves that case to a fresh closest match).
func (l *List) InsertAfterExtractMin(tag, payload, afterAddr int) (Entry, int, error) {
	if !l.headValid {
		return Entry{}, 0, ErrEmpty
	}
	if err := l.checkTagPayload(tag, payload); err != nil {
		return Entry{}, 0, err
	}
	if afterAddr == l.headAddr {
		return Entry{}, 0, fmt.Errorf("taglist: simultaneous insert after the departing head link %d", afterAddr)
	}
	if afterAddr < 0 || afterAddr >= l.cfg.Capacity {
		return Entry{}, 0, fmt.Errorf("taglist: predecessor address %d out of range [0,%d)", afterAddr, l.cfg.Capacity)
	}
	if l.headNext == l.headAddr {
		return Entry{}, 0, fmt.Errorf("taglist: simultaneous insert with single-entry list: predecessor %d departs", afterAddr)
	}
	l.windows++
	l.reg.BeginWindow()
	defer l.reg.EndWindow()
	out := Entry{Tag: l.headTag, Payload: l.headPayload, Addr: l.headAddr}
	reused := l.headAddr

	// Refresh the head registers from the next link (read 1).
	w, err := l.port.Read(l.headNext)
	if err != nil {
		return Entry{}, 0, err
	}
	ntag, nnext, npayload := l.unpack(w)
	l.headAddr, l.headTag, l.headPayload, l.headNext = l.headNext, ntag, npayload, nnext

	// Read the predecessor (read 2).
	pw, err := l.port.Read(afterAddr)
	if err != nil {
		return Entry{}, 0, err
	}
	ptag, pnext, ppayload := l.unpack(pw)
	newNext := pnext
	if pnext == afterAddr {
		newNext = reused
	}
	// Write predecessor → reused link (write 1).
	if err := l.port.Write(afterAddr, l.pack(ptag, reused, ppayload)); err != nil {
		return Entry{}, 0, err
	}
	// Write the reused link with the new tag (write 2).
	if err := l.port.Write(reused, l.pack(tag, newNext, payload)); err != nil {
		return Entry{}, 0, err
	}
	if afterAddr == l.headAddr {
		l.headNext = reused
	}
	return out, reused, nil
}

// InsertHeadExtractMin is the simultaneous-window variant for the case
// where the incoming tag becomes the new minimum once the current head
// departs (its closest match was the departing link itself, or no smaller
// tag exists). The departing link is reused as the new head.
func (l *List) InsertHeadExtractMin(tag, payload int) (Entry, int, error) {
	if !l.headValid {
		return Entry{}, 0, ErrEmpty
	}
	if err := l.checkTagPayload(tag, payload); err != nil {
		return Entry{}, 0, err
	}
	l.windows++
	l.reg.BeginWindow()
	defer l.reg.EndWindow()
	out := Entry{Tag: l.headTag, Payload: l.headPayload, Addr: l.headAddr}
	reused := l.headAddr

	next := reused // list becomes single-entry: self-link
	if l.headNext != reused {
		next = l.headNext
	}
	if err := l.port.Write(reused, l.pack(tag, next, payload)); err != nil {
		return Entry{}, 0, err
	}
	l.headTag, l.headPayload, l.headNext = tag, payload, next
	return out, reused, nil
}

// RemoveResult reports the outcome of a RemoveInGroup unlink.
type RemoveResult struct {
	// Found reports whether a matching link was unlinked.
	Found bool
	// Removed is the unlinked entry (valid only when Found).
	Removed Entry
	// PrevSameTag is the address of the same-tag link immediately
	// preceding the removed one, or -1 when the removed link was the
	// oldest of its group. When the removed link was the group's newest
	// (the translation-table target), PrevSameTag is the new newest.
	PrevSameTag int
}

// RemoveInGroup unlinks the oldest link matching (tag, payload) from its
// tag group. prevAddr is the address of the last link of the preceding
// (strictly smaller-tag) group — the translation-table entry for the
// closest smaller marked tag — or -1 when the target group starts at the
// list head. The group is walked oldest→newest through the functional
// read port, one charged read per link scanned, then the unlink issues
// the window's two writes (predecessor redirect + freed-link push), all
// inside one operation window whose span is derived by the port arbiter.
// A walk that revisits links or runs past the stored count is reported
// wrapping hwsim.ErrCorrupt.
func (l *List) RemoveInGroup(prevAddr, tag, payload int) (RemoveResult, error) {
	if err := l.checkTagPayload(tag, payload); err != nil {
		return RemoveResult{}, err
	}
	if prevAddr < -1 || prevAddr >= l.cfg.Capacity {
		return RemoveResult{}, fmt.Errorf("taglist: predecessor address %d out of range [-1,%d)", prevAddr, l.cfg.Capacity)
	}
	if !l.headValid {
		return RemoveResult{}, ErrEmpty
	}
	l.windows++
	l.reg.BeginWindow()
	defer l.reg.EndWindow()

	// Head removal: the group starts at the head and the head matches.
	if prevAddr == -1 && l.headTag == tag && l.headPayload == payload {
		out := Entry{Tag: l.headTag, Payload: l.headPayload, Addr: l.headAddr}
		freed := l.headAddr
		if l.headNext == freed {
			l.headValid = false
		} else {
			w, err := l.port.Read(l.headNext)
			if err != nil {
				return RemoveResult{}, err
			}
			ntag, nnext, npayload := l.unpack(w)
			l.headAddr, l.headTag, l.headPayload, l.headNext = l.headNext, ntag, npayload, nnext
		}
		if err := l.free(freed); err != nil {
			return RemoveResult{}, err
		}
		l.count--
		return RemoveResult{Found: true, Removed: out, PrevSameTag: -1}, nil
	}

	// Position the walk on the predecessor link: the head's registers
	// when the group starts at the head, otherwise one read of prevAddr.
	pAddr, pTag, pNext, pPayload := l.headAddr, l.headTag, l.headNext, l.headPayload
	if prevAddr >= 0 {
		w, err := l.port.Read(prevAddr)
		if err != nil {
			return RemoveResult{}, err
		}
		pTag, pNext, pPayload = l.unpack(w)
		pAddr = prevAddr
	}
	prevSame := -1
	if pTag == tag {
		prevSame = pAddr
	}
	cur := pNext
	for steps := 0; ; steps++ {
		if steps >= l.count {
			return RemoveResult{}, fmt.Errorf("taglist: %w: group walk for tag %d exceeded %d links (chain cycle)", hwsim.ErrCorrupt, tag, l.count)
		}
		if cur == pAddr {
			// The predecessor was the tail: the group ended without a match.
			return RemoveResult{}, nil
		}
		w, err := l.port.Read(cur)
		if err != nil {
			return RemoveResult{}, err
		}
		ctag, cnext, cpayload := l.unpack(w)
		if ctag != tag {
			// Groups are contiguous in the sorted chain: walked past it.
			return RemoveResult{}, nil
		}
		if cpayload == payload {
			newNext := cnext
			if cnext == cur { // removed link was the tail
				newNext = pAddr // predecessor becomes the tail (self-link)
			}
			if err := l.port.Write(pAddr, l.pack(pTag, newNext, pPayload)); err != nil {
				return RemoveResult{}, err
			}
			if err := l.free(cur); err != nil {
				return RemoveResult{}, err
			}
			if pAddr == l.headAddr {
				l.headNext = newNext
			}
			l.count--
			return RemoveResult{Found: true, Removed: Entry{Tag: ctag, Payload: cpayload, Addr: cur}, PrevSameTag: prevSame}, nil
		}
		prevSame = cur
		pAddr, pTag, pNext, pPayload = cur, ctag, cnext, cpayload
		cur = cnext
	}
}

// CheckEntry validates a (tag, payload) pair against the list geometry
// without modifying state, letting composed circuits validate inputs
// before committing earlier pipeline stages.
func (l *List) CheckEntry(tag, payload int) error {
	return l.checkTagPayload(tag, payload)
}

func (l *List) checkTagPayload(tag, payload int) error {
	if tag < 0 || tag >= 1<<uint(l.cfg.TagBits) {
		return fmt.Errorf("taglist: tag %d out of range [0,%d)", tag, 1<<uint(l.cfg.TagBits))
	}
	if payload < 0 || payload >= 1<<uint(l.cfg.PayloadBits) {
		return fmt.Errorf("taglist: payload %d out of range [0,%d)", payload, 1<<uint(l.cfg.PayloadBits))
	}
	return nil
}

// InitCounter returns the initialization-counter position: addresses at
// or beyond it have never been used (audit port, paper §III-C).
func (l *List) InitCounter() int { return l.initCounter }

// Rescan walks the live chain through the functional read port —
// costing one memory access per link, charged to the clock — and
// refreshes the head registers from the stored head word. It is the
// scan phase of recovery: the linked list in the tag storage memory is
// the authoritative copy of the system state, and Rescan is how the
// repair engine reads it at honest hardware cost. The register anchor
// (head address) is trusted; a broken or cyclic chain is reported
// wrapping hwsim.ErrCorrupt.
func (l *List) Rescan() ([]Entry, error) {
	if !l.headValid {
		return nil, nil
	}
	out := make([]Entry, 0, l.count)
	seen := make(map[int]bool, l.count)
	addr := l.headAddr
	for i := 0; i < l.count; i++ {
		if seen[addr] {
			return out, fmt.Errorf("taglist: %w: rescan revisits link %d (chain cycle)", hwsim.ErrCorrupt, addr)
		}
		seen[addr] = true
		w, err := l.port.Read(addr)
		if err != nil {
			return nil, err
		}
		tag, next, payload := l.unpack(w)
		out = append(out, Entry{Tag: tag, Payload: payload, Addr: addr})
		if addr == l.headAddr {
			// The memory word is authoritative; the registers are caches.
			l.headTag, l.headPayload, l.headNext = tag, payload, next
		}
		if next == addr {
			break
		}
		addr = next
	}
	if len(out) != l.count {
		return out, fmt.Errorf("taglist: %w: rescan visited %d links, count is %d (broken chain)", hwsim.ErrCorrupt, len(out), l.count)
	}
	return out, nil
}

// RebuildFreeList rewrites the empty list from scratch given the live
// chain (the output of Rescan): every address not on the live chain is
// chained into a fresh empty list through the functional write port,
// charged to the clock. After it returns, the free structure is exactly
// consistent with the live chain regardless of what corruption it held.
func (l *List) RebuildFreeList(live []Entry) error {
	used := make(map[int]bool, len(live))
	for _, e := range live {
		used[e.Addr] = true
	}
	// All addresses become "ever used": the initialization counter has
	// done its job and the rebuilt empty list covers the remainder.
	l.initCounter = l.cfg.Capacity
	l.emptyValid = false
	for addr := l.cfg.Capacity - 1; addr >= 0; addr-- {
		if used[addr] {
			continue
		}
		if err := l.free(addr); err != nil {
			return err
		}
	}
	l.count = len(live)
	return nil
}

// Reset empties the list entirely — contents, registers, counters-of-
// record (not the traffic stats) — for flush-style recovery where the
// queued tags are abandoned rather than repaired.
func (l *List) Reset() {
	l.reg.Wipe()
	l.headValid = false
	l.emptyValid = false
	l.initCounter = 0
	l.count = 0
}
