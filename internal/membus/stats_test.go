package membus

import (
	"testing"

	"wfqsort/internal/hwsim"
)

// bankSum folds a region's per-bank counters into the traffic fields of
// Stats, the view StatsSnapshot must report.
func bankSum(r *Region) Stats {
	var s Stats
	for _, b := range r.BankStats() {
		s.Reads += b.Reads
		s.Writes += b.Writes
		s.Cycles += b.BusyCycles
		s.StallCycles += b.StallCycles
	}
	return s
}

func checkSumsBanks(t *testing.T, r *Region) {
	t.Helper()
	st, sum := r.StatsSnapshot(), bankSum(r)
	if st.Reads != sum.Reads || st.Writes != sum.Writes || st.Cycles != sum.Cycles || st.StallCycles != sum.StallCycles {
		t.Fatalf("region %q stats %+v, bank sums %+v", r.Name(), st, sum)
	}
	if as := r.AccessStats(); as != (hwsim.AccessStats{Reads: sum.Reads, Writes: sum.Writes, Cycles: sum.Cycles}) {
		t.Fatalf("region %q AccessStats %+v, bank sums %+v", r.Name(), as, sum)
	}
}

// TestRegionStatsSumBanks pins the single counter set: traffic is
// counted once per bank, the region view is the sum over its banks,
// and Conflicts counts exactly the accesses that stalled.
func TestRegionStatsSumBanks(t *testing.T) {
	clk := &hwsim.Clock{}
	f := New(clk)
	r := mustRegion(t, f, RegionConfig{Name: "m", Depth: 32, WordBits: 8, Banks: 4, Ports: PortSplit, WriteCycles: 2})
	regs := mustRegion(t, f, RegionConfig{Name: "regs", Depth: 4, WordBits: 8, Banks: 2, Register: true})
	obs := &traceObserver{}
	f.SetObserver(obs)
	p := r.Port()
	read := func(addr int) {
		t.Helper()
		if _, err := p.Read(addr); err != nil {
			t.Fatal(err)
		}
	}
	write := func(addr int) {
		t.Helper()
		if err := p.Write(addr, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Window 1: three reads and two writes collide on bank 0 (reads on
	// port A, writes on port B); bank 1 takes one of each unopposed.
	r.BeginWindow()
	read(0)
	read(4)
	read(8)
	write(0)
	write(4)
	read(1)
	write(5)
	if span := r.EndWindow(); span != 4 {
		t.Fatalf("window 1 spans %d, want 4", span)
	}
	// Sequential accesses never stall.
	read(2)
	write(3)
	read(2)
	// Window 2: two writes collide on bank 3's write port.
	r.BeginWindow()
	write(7)
	write(11)
	if span := r.EndWindow(); span != 4 {
		t.Fatalf("window 2 spans %d, want 4", span)
	}

	checkSumsBanks(t, r)
	st := r.StatsSnapshot()
	want := Stats{Reads: 6, Writes: 6, Cycles: 6*1 + 6*2, StallCycles: 7, Conflicts: 4, Windows: 2, WindowCycles: 8}
	if st != want {
		t.Fatalf("region stats %+v, want %+v", st, want)
	}
	stalled := uint64(0)
	for _, a := range obs.seen {
		if a.Stall > 0 {
			stalled++
		}
	}
	if uint64(len(obs.seen)) != st.Accesses() || stalled != st.Conflicts {
		t.Fatalf("observer saw %d accesses, %d stalled; region counts %d accesses, %d conflicts",
			len(obs.seen), stalled, st.Accesses(), st.Conflicts)
	}

	// A register region counts its accesses at zero cycles, in its
	// banks as in its region view, and never reaches the observer.
	rp := regs.Port()
	before := clk.Now()
	for addr := 0; addr < 3; addr++ {
		if _, err := rp.Read(addr); err != nil {
			t.Fatal(err)
		}
	}
	for addr := 0; addr < 2; addr++ {
		if err := rp.Write(addr, 3); err != nil {
			t.Fatal(err)
		}
	}
	checkSumsBanks(t, regs)
	if rs := regs.StatsSnapshot(); rs != (Stats{Reads: 3, Writes: 2}) {
		t.Fatalf("register stats %+v, want 3 reads and 2 writes at zero cycles", rs)
	}
	if clk.Now() != before || uint64(len(obs.seen)) != st.Accesses() {
		t.Fatalf("register accesses advanced the clock %d→%d or reached the observer", before, clk.Now())
	}

	var total Stats
	for _, reg := range f.Regions() {
		total.add(reg.StatsSnapshot())
	}
	if fs := f.StatsSnapshot(); fs != total {
		t.Fatalf("fabric stats %+v, want the region sum %+v", fs, total)
	}

	// ResetStats zeroes the region view and the bank view alike.
	f.ResetStats()
	for _, reg := range f.Regions() {
		if rs := reg.StatsSnapshot(); rs != (Stats{}) {
			t.Fatalf("region %q stats %+v after reset", reg.Name(), rs)
		}
		for i, b := range reg.BankStats() {
			if b != (BankStats{}) {
				t.Fatalf("region %q bank %d stats %+v after reset", reg.Name(), i, b)
			}
		}
	}
	if fs := f.StatsSnapshot(); fs != (Stats{}) {
		t.Fatalf("fabric stats %+v after reset", fs)
	}
}
