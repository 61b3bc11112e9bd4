package hwsim_test

// The memories of the circuit model are membus regions: an SRAM is a
// region with access latency, a register file is a Register region.
// These tests pin the contract this package's vocabulary describes —
// AccessStats counters, ErrAddressRange, clock advance by access
// latency — on those regions.

import (
	"errors"
	"testing"
	"testing/quick"

	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
)

func mustRegion(t *testing.T, clk *hwsim.Clock, cfg membus.RegionConfig) *membus.Region {
	t.Helper()
	r, err := membus.New(clk).Provision(cfg)
	if err != nil {
		t.Fatalf("Provision %q: %v", cfg.Name, err)
	}
	return r
}

func TestNewSRAMValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  membus.RegionConfig
		ok   bool
	}{
		{"valid", membus.RegionConfig{Name: "m", Depth: 8, WordBits: 16}, true},
		{"full width", membus.RegionConfig{Name: "m", Depth: 1, WordBits: 64}, true},
		{"zero depth", membus.RegionConfig{Name: "m", Depth: 0, WordBits: 16}, false},
		{"negative depth", membus.RegionConfig{Name: "m", Depth: -4, WordBits: 16}, false},
		{"zero width", membus.RegionConfig{Name: "m", Depth: 8, WordBits: 0}, false},
		{"too wide", membus.RegionConfig{Name: "m", Depth: 8, WordBits: 65}, false},
		{"negative read latency", membus.RegionConfig{Name: "m", Depth: 8, WordBits: 8, ReadCycles: -1}, false},
		{"negative write latency", membus.RegionConfig{Name: "m", Depth: 8, WordBits: 8, WriteCycles: -2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := membus.New(nil).Provision(tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("Provision(%+v) error = %v, want ok=%v", tt.cfg, err, tt.ok)
			}
		})
	}
}

func TestSRAMReadWrite(t *testing.T) {
	p := mustRegion(t, nil, membus.RegionConfig{Name: "t", Depth: 4, WordBits: 12}).Port()
	if err := p.Write(2, 0xABC); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := p.Read(2)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != 0xABC {
		t.Fatalf("Read = %#x, want 0xabc", got)
	}
}

func TestSRAMWordMasking(t *testing.T) {
	p := mustRegion(t, nil, membus.RegionConfig{Name: "t", Depth: 2, WordBits: 12}).Port()
	if err := p.Write(0, 0xFFFFF); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, _ := p.Read(0)
	if got != 0xFFF {
		t.Fatalf("word not masked to 12 bits: got %#x, want 0xfff", got)
	}
}

func TestSRAMAddressRangeErrors(t *testing.T) {
	r := mustRegion(t, nil, membus.RegionConfig{Name: "t", Depth: 4, WordBits: 8})
	p := r.Port()
	for _, addr := range []int{-1, 4, 100} {
		if _, err := p.Read(addr); !errors.Is(err, hwsim.ErrAddressRange) {
			t.Errorf("Read(%d) error = %v, want ErrAddressRange", addr, err)
		}
		if err := p.Write(addr, 1); !errors.Is(err, hwsim.ErrAddressRange) {
			t.Errorf("Write(%d) error = %v, want ErrAddressRange", addr, err)
		}
		if _, err := r.Peek(addr); !errors.Is(err, hwsim.ErrAddressRange) {
			t.Errorf("Peek(%d) error = %v, want ErrAddressRange", addr, err)
		}
		if err := r.Poke(addr, 1); !errors.Is(err, hwsim.ErrAddressRange) {
			t.Errorf("Poke(%d) error = %v, want ErrAddressRange", addr, err)
		}
	}
}

func TestSRAMStatsAndClockAdvance(t *testing.T) {
	var clk hwsim.Clock
	r := mustRegion(t, &clk, membus.RegionConfig{Name: "t", Depth: 8, WordBits: 16, ReadCycles: 2, WriteCycles: 3})
	p := r.Port()
	for i := 0; i < 4; i++ {
		if err := p.Write(i, uint64(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Read(i); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	st := r.AccessStats()
	if st.Writes != 4 || st.Reads != 2 {
		t.Fatalf("stats = %+v, want 4 writes 2 reads", st)
	}
	wantCycles := uint64(4*3 + 2*2)
	if st.Cycles != wantCycles {
		t.Fatalf("stats cycles = %d, want %d", st.Cycles, wantCycles)
	}
	if clk.Now() != wantCycles {
		t.Fatalf("clock advanced to %d, want %d", clk.Now(), wantCycles)
	}
	if st.Accesses() != 6 {
		t.Fatalf("Accesses() = %d, want 6", st.Accesses())
	}
}

func TestSRAMPeekPokeDoNotCount(t *testing.T) {
	r := mustRegion(t, nil, membus.RegionConfig{Name: "t", Depth: 4, WordBits: 8})
	if err := r.Poke(1, 42); err != nil {
		t.Fatalf("Poke: %v", err)
	}
	got, err := r.Peek(1)
	if err != nil || got != 42 {
		t.Fatalf("Peek = %d, %v; want 42, nil", got, err)
	}
	if st := r.AccessStats(); st.Accesses() != 0 {
		t.Fatalf("Peek/Poke counted as accesses: %+v", st)
	}
}

func TestSRAMClearAndResetStats(t *testing.T) {
	r := mustRegion(t, nil, membus.RegionConfig{Name: "t", Depth: 4, WordBits: 8})
	if err := r.Port().Write(0, 9); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r.ResetStats()
	if st := r.AccessStats(); st.Accesses() != 0 {
		t.Fatalf("ResetStats left counters: %+v", st)
	}
	got, _ := r.Peek(0)
	if got != 9 {
		t.Fatalf("ResetStats cleared contents: got %d, want 9", got)
	}
	r.Clear()
	got, _ = r.Peek(0)
	if got != 0 {
		t.Fatalf("Clear left contents: got %d, want 0", got)
	}
}

func TestSRAMBits(t *testing.T) {
	// Paper equation (2): level memory for a 3-level, 16-bit-node tree is
	// 16, 256, 4096 bits for levels 0, 1, 2.
	for _, tt := range []struct {
		depth, width, want int
	}{
		{1, 16, 16},
		{16, 16, 256},
		{256, 16, 4096},
	} {
		r := mustRegion(t, nil, membus.RegionConfig{Name: "lvl", Depth: tt.depth, WordBits: tt.width})
		if got := r.Bits(); got != tt.want {
			t.Errorf("Bits(depth=%d,width=%d) = %d, want %d", tt.depth, tt.width, got, tt.want)
		}
	}
}

func TestSRAMRoundTripProperty(t *testing.T) {
	p := mustRegion(t, nil, membus.RegionConfig{Name: "t", Depth: 256, WordBits: 32}).Port()
	f := func(addr uint8, val uint32) bool {
		if err := p.Write(int(addr), uint64(val)); err != nil {
			return false
		}
		got, err := p.Read(int(addr))
		return err == nil && got == uint64(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterFile(t *testing.T) {
	var clk hwsim.Clock
	r := mustRegion(t, &clk, membus.RegionConfig{Name: "lvl0", Depth: 17, WordBits: 16, Register: true})
	p := r.Port()
	if r.Depth() != 17 {
		t.Fatalf("Depth = %d, want 17", r.Depth())
	}
	if err := p.Write(3, 0x1FFFF); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := p.Read(3)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != 0xFFFF {
		t.Fatalf("register not masked to 16 bits: got %#x", got)
	}
	if st := r.AccessStats(); st.Accesses() != 2 || st.Cycles != 0 || clk.Now() != 0 {
		t.Fatalf("stats %+v at cycle %d, want 2 accesses costing no cycles", st, clk.Now())
	}
	if _, err := p.Read(17); !errors.Is(err, hwsim.ErrAddressRange) {
		t.Fatalf("out-of-range Read error = %v, want ErrAddressRange", err)
	}
	if err := p.Write(-1, 0); !errors.Is(err, hwsim.ErrAddressRange) {
		t.Fatalf("out-of-range Write error = %v, want ErrAddressRange", err)
	}
	r.Clear()
	if n := r.AccessStats().Accesses(); n != 0 {
		t.Fatalf("Clear left counters: %d", n)
	}
	got, _ = r.Peek(3)
	if got != 0 {
		t.Fatalf("Clear left contents: %#x", got)
	}
}

func TestRegisterFileValidation(t *testing.T) {
	provision := func(depth, width int) error {
		_, err := membus.New(nil).Provision(membus.RegionConfig{Name: "r", Depth: depth, WordBits: width, Register: true})
		return err
	}
	if provision(0, 8) == nil {
		t.Error("zero depth accepted")
	}
	if provision(4, 0) == nil {
		t.Error("zero width accepted")
	}
	if provision(4, 65) == nil {
		t.Error("overwide word accepted")
	}
	if err := provision(4, 64); err != nil {
		t.Errorf("64-bit word rejected: %v", err)
	}
}
