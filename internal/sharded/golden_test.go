package sharded

import (
	"testing"

	"wfqsort/internal/traffic"
)

// TestShardedCycleGolden pins the sequential cycle model: it replays
// the sortbench -sharded workload (bell tag profile, seed 1, 256
// batches of 64 through InsertBatch, 64 extracts after each batch, 128
// links per lane) and asserts the modelled figures committed in
// BENCH_sharded.json. Max-lane accounting, per-lane clocks and the
// select tree's depth are all that feed these numbers, so any change to
// how lanes are driven or combined that moves a modelled cycle fails
// here.
func TestShardedCycleGolden(t *testing.T) {
	const batch, batches = 64, 256
	golden := []struct {
		lanes     int
		maxCycles uint64
		sumCycles uint64
		depth     int
	}{
		{1, 242447, 242447, 0},
		{2, 119160, 237413, 1},
		{4, 57857, 230217, 2},
		{8, 28375, 220271, 3},
	}
	for _, g := range golden {
		s := mustNew(t, Config{Lanes: g.lanes, LaneCapacity: 2 * batch})
		gen, err := traffic.NewTagGen(traffic.ProfileBell, 1)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			reqs := make([]Request, batch)
			for i := range reqs {
				reqs[i] = Request{Tag: gen.Sample(0, 4095), Payload: i}
			}
			if _, err := s.InsertBatch(reqs); err != nil {
				t.Fatalf("lanes=%d batch %d: %v", g.lanes, b, err)
			}
			for i := 0; i < batch; i++ {
				if _, err := s.ExtractMin(); err != nil {
					t.Fatalf("lanes=%d batch %d extract %d: %v", g.lanes, b, i, err)
				}
			}
		}
		st := s.StatsSnapshot()
		if st.MaxLaneCycles != g.maxCycles || st.SumLaneCycles != g.sumCycles || st.SelectDepth != g.depth {
			t.Errorf("lanes=%d: max/sum cycles %d/%d depth %d, want %d/%d depth %d",
				g.lanes, st.MaxLaneCycles, st.SumLaneCycles, st.SelectDepth,
				g.maxCycles, g.sumCycles, g.depth)
		}
	}
}
