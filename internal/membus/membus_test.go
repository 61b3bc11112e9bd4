package membus

import (
	"errors"
	"testing"

	"wfqsort/internal/hwsim"
)

func mustRegion(t *testing.T, f *Fabric, cfg RegionConfig) *Region {
	t.Helper()
	r, err := f.Provision(cfg)
	if err != nil {
		t.Fatalf("Provision %q: %v", cfg.Name, err)
	}
	return r
}

func TestProvisionValidation(t *testing.T) {
	f := New(nil)
	bad := []RegionConfig{
		{Name: "d0", Depth: 0, WordBits: 8},
		{Name: "w0", Depth: 4, WordBits: 0},
		{Name: "w65", Depth: 4, WordBits: 65},
		{Name: "b", Depth: 4, WordBits: 8, Banks: 8},
		{Name: "p", Depth: 4, WordBits: 8, Ports: PortMode(9)},
		{Name: "neg", Depth: 4, WordBits: 8, ReadCycles: -1},
	}
	for _, cfg := range bad {
		if _, err := f.Provision(cfg); err == nil {
			t.Errorf("Provision(%+v) accepted invalid config", cfg)
		}
	}
	mustRegion(t, f, RegionConfig{Name: "dup", Depth: 4, WordBits: 8})
	if _, err := f.Provision(RegionConfig{Name: "dup", Depth: 4, WordBits: 8}); err == nil {
		t.Error("duplicate region name accepted")
	}
}

func TestSequentialAccessMatchesLatency(t *testing.T) {
	clk := &hwsim.Clock{}
	f := New(clk)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 8, WordBits: 16})
	p := r.Port()
	if err := p.Write(3, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	w, err := p.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xBEEF {
		t.Fatalf("read back %#x, want 0xBEEF", w)
	}
	// Sequential (un-windowed) traffic charges exactly the access
	// latency, like the pre-fabric SRAM model.
	if clk.Now() != 2 {
		t.Fatalf("clock at %d after 1R+1W, want 2", clk.Now())
	}
	st := r.StatsSnapshot()
	if st.Reads != 1 || st.Writes != 1 || st.Cycles != 2 || st.StallCycles != 0 || st.Conflicts != 0 {
		t.Fatalf("stats %+v, want 1R 1W 2 cycles, no stalls", st)
	}
}

func TestAddressRange(t *testing.T) {
	f := New(nil)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 4, WordBits: 8})
	if _, err := r.Port().Read(4); !errors.Is(err, hwsim.ErrAddressRange) {
		t.Fatalf("read OOB: %v, want ErrAddressRange", err)
	}
	if err := r.Port().Write(-1, 1); !errors.Is(err, hwsim.ErrAddressRange) {
		t.Fatalf("write OOB: %v, want ErrAddressRange", err)
	}
	if _, err := r.Peek(9); !errors.Is(err, hwsim.ErrAddressRange) {
		t.Fatalf("peek OOB: %v, want ErrAddressRange", err)
	}
}

// TestWindowDerivation checks the paper's §III-C technology table as an
// emergent property: the same 2R+2W operation window costs 4 cycles on
// a shared SDR port, 2 on split QDRII ports, and 3 on split ports with
// a one-cycle activation (RLDRAM).
func TestWindowDerivation(t *testing.T) {
	cases := []struct {
		name     string
		cfg      RegionConfig
		want     int
		stalls   uint64
		conflict uint64
	}{
		// Four accesses serialize on the single port: 3 of them wait.
		{"sdr-shared", RegionConfig{Name: "m", Depth: 16, WordBits: 16}, 4, 1 + 2 + 3, 3},
		// Reads overlap writes on split ports: R2 and W2 wait 1 each.
		{"qdrii-split", RegionConfig{Name: "m", Depth: 16, WordBits: 16, Ports: PortSplit}, 2, 2, 2},
		// Split ports plus a 1-cycle bank activation margin.
		{"rldram-split-activate", RegionConfig{Name: "m", Depth: 16, WordBits: 16, Ports: PortSplit, ActivateCycles: 1}, 3, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &hwsim.Clock{}
			f := New(clk)
			r := mustRegion(t, f, tc.cfg)
			p := r.Port()
			r.BeginWindow()
			if _, err := p.Read(0); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Read(1); err != nil {
				t.Fatal(err)
			}
			if err := p.Write(2, 7); err != nil {
				t.Fatal(err)
			}
			if err := p.Write(3, 9); err != nil {
				t.Fatal(err)
			}
			span := r.EndWindow()
			if span != tc.want {
				t.Fatalf("2R+2W window spans %d cycles, want %d", span, tc.want)
			}
			if clk.Now() != uint64(tc.want) {
				t.Fatalf("clock at %d after window, want %d", clk.Now(), tc.want)
			}
			st := r.StatsSnapshot()
			if st.StallCycles != tc.stalls || st.Conflicts != tc.conflict {
				t.Fatalf("stalls %d conflicts %d, want %d/%d", st.StallCycles, st.Conflicts, tc.stalls, tc.conflict)
			}
			if st.Windows != 1 || st.WindowCycles != uint64(tc.want) {
				t.Fatalf("window counters %d/%d, want 1/%d", st.Windows, st.WindowCycles, tc.want)
			}
		})
	}
}

// TestBankCollisions drives same-cycle access pairs at a 2-bank split-
// port region and checks which combinations collide: only accesses
// needing the same port of the same bank in the same cycle stall.
func TestBankCollisions(t *testing.T) {
	cases := []struct {
		name       string
		addrA      int
		addrB      int
		writeA     bool
		writeB     bool
		span       int
		stalls     uint64
		bankStalls []uint64 // per-bank expected stall cycles
	}{
		{"reads-different-banks", 0, 1, false, false, 1, 0, []uint64{0, 0}},
		{"reads-same-bank", 0, 2, false, false, 2, 1, []uint64{1, 0}},
		{"read-write-same-bank-split", 0, 2, false, true, 1, 0, []uint64{0, 0}},
		{"writes-same-bank", 2, 0, true, true, 2, 1, []uint64{1, 0}},
		{"writes-different-banks", 1, 2, true, true, 1, 0, []uint64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(nil)
			r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 8, WordBits: 8, Banks: 2, Ports: PortSplit})
			p := r.Port()
			do := func(addr int, write bool) {
				t.Helper()
				var err error
				if write {
					err = p.Write(addr, 1)
				} else {
					_, err = p.Read(addr)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			r.BeginWindow()
			do(tc.addrA, tc.writeA)
			do(tc.addrB, tc.writeB)
			if span := r.EndWindow(); span != tc.span {
				t.Fatalf("window spans %d, want %d", span, tc.span)
			}
			if st := r.StatsSnapshot(); st.StallCycles != tc.stalls {
				t.Fatalf("region stalls %d, want %d", st.StallCycles, tc.stalls)
			}
			for i, bs := range r.BankStats() {
				if bs.StallCycles != tc.bankStalls[i] {
					t.Fatalf("bank %d stalls %d, want %d", i, bs.StallCycles, tc.bankStalls[i])
				}
			}
		})
	}
}

// TestSharedPortCollisionWithinWindow pins the arbiter's same-bank
// same-cycle read/write collision on a shared port: the write cannot
// start until the read releases the port, and the wait is booked as a
// stall on that bank.
func TestSharedPortCollisionWithinWindow(t *testing.T) {
	f := New(nil)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 8, WordBits: 8, Banks: 4})
	p := r.Port()
	r.BeginWindow()
	if _, err := p.Read(5); err != nil { // bank 1
		t.Fatal(err)
	}
	if err := p.Write(1, 3); err != nil { // bank 1 again: collides
		t.Fatal(err)
	}
	if span := r.EndWindow(); span != 2 {
		t.Fatalf("window spans %d, want 2 (write stalled behind read)", span)
	}
	bs := r.BankStats()
	if bs[1].StallCycles != 1 || bs[1].Reads != 1 || bs[1].Writes != 1 {
		t.Fatalf("bank 1 stats %+v, want 1 stall, 1R, 1W", bs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if bs[i].Reads+bs[i].Writes != 0 {
			t.Fatalf("bank %d saw traffic %+v", i, bs[i])
		}
	}
}

func TestWindowAccountsOnlyScheduledAccesses(t *testing.T) {
	clk := &hwsim.Clock{}
	f := New(clk)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 8, WordBits: 8})
	// A 3-access window on a shared port spans 3 cycles, not a fixed 4:
	// the window budget is derived from the accesses actually issued.
	r.BeginWindow()
	if _, err := r.Port().Read(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Port().Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Port().Write(2, 2); err != nil {
		t.Fatal(err)
	}
	if span := r.EndWindow(); span != 3 {
		t.Fatalf("3-access window spans %d, want 3", span)
	}
	if clk.Now() != 3 {
		t.Fatalf("clock %d, want 3", clk.Now())
	}
}

func TestNestedWindowPanics(t *testing.T) {
	f := New(nil)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 4, WordBits: 8})
	r.BeginWindow()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested BeginWindow did not panic")
			}
		}()
		r.BeginWindow()
	}()
	r.EndWindow()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unmatched EndWindow did not panic")
			}
		}()
		r.EndWindow()
	}()
}

func TestRegisterRegionCostsNothing(t *testing.T) {
	clk := &hwsim.Clock{}
	f := New(clk)
	r := mustRegion(t, f, RegionConfig{Name: "regs", Depth: 4, WordBits: 16, Register: true})
	p := r.Port()
	if err := p.Write(0, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(0); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 0 {
		t.Fatalf("register access advanced the clock to %d", clk.Now())
	}
	st := r.StatsSnapshot()
	if st.Reads != 1 || st.Writes != 1 || st.Cycles != 0 {
		t.Fatalf("register stats %+v, want counted accesses at zero cycles", st)
	}
}

func TestDebugPorts(t *testing.T) {
	clk := &hwsim.Clock{}
	f := New(clk)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 4, WordBits: 8})
	if err := r.Poke(2, 0x5A); err != nil {
		t.Fatal(err)
	}
	w, err := r.Peek(2)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0x5A {
		t.Fatalf("peek %#x, want 0x5A", w)
	}
	if clk.Now() != 0 || r.StatsSnapshot().Accesses() != 0 {
		t.Fatal("debug ports charged cycles or counted accesses")
	}
	r.Wipe()
	if w, _ := r.Peek(2); w != 0 {
		t.Fatalf("wipe left %#x", w)
	}
}

func TestWordMasking(t *testing.T) {
	f := New(nil)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 2, WordBits: 4})
	if err := r.Port().Write(0, 0xFF); err != nil {
		t.Fatal(err)
	}
	if w, _ := r.Port().Read(0); w != 0xF {
		t.Fatalf("word %#x, want masked 0xF", w)
	}
}

// traceObserver records observed accesses and optionally corrupts one
// read in flight.
type traceObserver struct {
	seen       []Access
	xorAt      int // 1-based access seq to corrupt; 0 = never
	xorMask    uint64
	afterWrite int
}

func (o *traceObserver) Observe(r *Region, a *Access) (uint64, error) {
	o.seen = append(o.seen, *a)
	if o.xorAt != 0 && a.Seq == uint64(o.xorAt) && !a.Write {
		return o.xorMask, nil
	}
	return 0, nil
}

func (o *traceObserver) AfterWrite(r *Region, a *Access) error {
	o.afterWrite++
	return nil
}

func TestObserverSeesCoordinatesAndCorruptsReads(t *testing.T) {
	clk := &hwsim.Clock{}
	f := New(clk)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 8, WordBits: 8, Banks: 2, Ports: PortSplit})
	obs := &traceObserver{xorAt: 2, xorMask: 0x0F}
	f.SetObserver(obs)
	p := r.Port()
	if err := p.Write(3, 0xA0); err != nil {
		t.Fatal(err)
	}
	w, err := p.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xAF {
		t.Fatalf("corrupted read %#x, want 0xAF (stored word untouched)", w)
	}
	if got, _ := r.Peek(3); got != 0xA0 {
		t.Fatalf("stored word %#x changed by transient read corruption", got)
	}
	if len(obs.seen) != 2 || obs.afterWrite != 1 {
		t.Fatalf("observer saw %d accesses, %d write completions", len(obs.seen), obs.afterWrite)
	}
	wr, rd := obs.seen[0], obs.seen[1]
	if !wr.Write || wr.Bank != 1 || wr.Port != PortB || wr.Addr != 3 || wr.Cycle != 0 {
		t.Fatalf("write record %+v, want bank 1 port B addr 3 cycle 0", wr)
	}
	if rd.Write || rd.Bank != 1 || rd.Port != PortA || rd.Cycle != 1 {
		t.Fatalf("read record %+v, want bank 1 port A cycle 1", rd)
	}
}

func TestObserverSkipsRegisterRegions(t *testing.T) {
	f := New(nil)
	r := mustRegion(t, f, RegionConfig{Name: "regs", Depth: 4, WordBits: 8, Register: true})
	obs := &traceObserver{}
	f.SetObserver(obs)
	if err := r.Port().Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Port().Read(0); err != nil {
		t.Fatal(err)
	}
	if len(obs.seen) != 0 {
		t.Fatalf("observer saw %d register accesses, want 0", len(obs.seen))
	}
}

// TestTraceRingDrain traces accesses through the Observer seam: each
// observed record carries the access's address, direction and
// fabric-wide sequence number, and accesses made while no observer is
// installed still advance the sequence.
func TestTraceRingDrain(t *testing.T) {
	f := New(nil)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 8, WordBits: 8})
	p := r.Port()
	obs := &traceObserver{}
	f.SetObserver(obs)
	for i := 0; i < 5; i++ {
		if err := p.Write(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(obs.seen) != 5 {
		t.Fatalf("trace holds %d records, want 5", len(obs.seen))
	}
	for i, a := range obs.seen {
		if a.Addr != i || !a.Write || a.Seq != uint64(i+1) {
			t.Fatalf("record %d = %+v, want write of addr %d seq %d", i, a, i, i+1)
		}
	}
	// N further reads, all but the last unobserved; an observer
	// installed after them still sees the fabric-wide numbering.
	const n = 515
	f.SetObserver(nil)
	for i := 0; i < n-1; i++ {
		if _, err := p.Read(i % 8); err != nil {
			t.Fatal(err)
		}
	}
	late := &traceObserver{}
	f.SetObserver(late)
	if _, err := p.Read(6); err != nil {
		t.Fatal(err)
	}
	if len(late.seen) != 1 {
		t.Fatalf("late observer saw %d records, want 1", len(late.seen))
	}
	if a := late.seen[0]; a.Addr != 6 || a.Write || a.Seq != 5+n {
		t.Fatalf("late record %+v, want read of addr 6 seq %d", a, 5+n)
	}
	if len(obs.seen) != 5 {
		t.Fatalf("detached observer saw %d records, want 5", len(obs.seen))
	}
}

func TestFabricAggregateStatsAndReset(t *testing.T) {
	f := New(nil)
	a := mustRegion(t, f, RegionConfig{Name: "a", Depth: 4, WordBits: 8})
	b := mustRegion(t, f, RegionConfig{Name: "b", Depth: 4, WordBits: 8})
	if _, err := a.Port().Read(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Port().Write(1, 1); err != nil {
		t.Fatal(err)
	}
	st := f.StatsSnapshot()
	if st.Reads != 1 || st.Writes != 1 || st.Cycles != 2 {
		t.Fatalf("aggregate %+v, want 1R 1W 2 cycles", st)
	}
	if f.Region("a") != a || f.Region("missing") != nil {
		t.Fatal("Region lookup broken")
	}
	if got := f.Regions(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatal("Regions order broken")
	}
	f.ResetStats()
	if st := f.StatsSnapshot(); st.Accesses() != 0 {
		t.Fatalf("reset left %+v", st)
	}
}
