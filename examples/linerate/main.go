// Line-rate example: the paper's §IV headline — the circuit sustains one
// packet per four-cycle window, so at the implemented 143.2 MHz clock it
// schedules 35.8 million packets per second, which at the paper's
// conservative 140-byte average packet is a 40 Gb/s line. This example
// prints the throughput model across clock frequencies and packet sizes
// and cross-checks the 4-cycle window on a live datapath run.
package main

import (
	"fmt"
	"log"

	"wfqsort"
	"wfqsort/internal/sharded"
	"wfqsort/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("Throughput = clock / 4-cycle window (paper §IV)")
	fmt.Printf("%-18s %10s %26s\n", "clock", "Mpps", "line rate @140-byte packets")
	for _, clk := range []float64{100e6, 143.2e6, 200e6, 400e6} {
		sched, err := wfqsort.NewScheduler(wfqsort.SchedulerConfig{
			Weights:     []float64{1},
			CapacityBps: 40e9,
			ClockHz:     clk,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%13.1f MHz %10.1f %21.1f Gb/s\n",
			clk/1e6, sched.SupportedPPS()/1e6, sched.SupportedLineRate(140)/1e9)
	}

	fmt.Println("\nscaling with mean packet size at the implemented 143.2 MHz:")
	sched, err := wfqsort.NewScheduler(wfqsort.SchedulerConfig{
		Weights:     []float64{0.25, 0.25, 0.25, 0.25},
		CapacityBps: 40e9,
	})
	if err != nil {
		return err
	}
	for _, size := range []float64{64, 140, 340, 576, 1500} {
		gbps := sched.SupportedLineRate(size) / 1e9
		marker := ""
		if size == 140 {
			marker = "  ← paper's operating point (40 Gb/s)"
		}
		fmt.Printf("  %4.0f bytes: %6.1f Gb/s%s\n", size, gbps, marker)
	}

	// Live cross-check: run a VoIP-mix burst through the datapath and
	// verify the fixed window accounting.
	var sources []traffic.Source
	for f := 0; f < 4; f++ {
		src, err := traffic.NewPoisson(f, 2000, traffic.VoIPMix{}, 500, int64(f+1))
		if err != nil {
			return err
		}
		sources = append(sources, src)
	}
	pkts, err := traffic.Merge(sources...)
	if err != nil {
		return err
	}
	res, err := sched.Run(pkts)
	if err != nil {
		return err
	}
	fmt.Printf("\nlive run: %d packets, %d sorter windows, ≤%d-read tree searches\n",
		len(res.Departures), res.Windows, res.Sorter.TreeMaxDepth)
	perPacket := float64(res.Windows) / float64(len(res.Departures))
	fmt.Printf("windows per packet: %.2f (insert + extract; the silicon overlaps both in one)\n", perPacket)

	return shardedScaleOut()
}

// shardedScaleOut shows how lane-parallel sharding multiplies the
// single-circuit line rate: N circuits each own an interleaved slice of
// the tag space, each lane counts its inserts on its own clock (the
// lanes run in parallel in hardware), and a log₂(N)-deep select tree
// serves the global minimum. The hardware wall
// clock for a batch is the busiest lane, so the model speedup is
// sum-of-lane-cycles over max-lane-cycles.
func shardedScaleOut() error {
	fmt.Println("\nsharded scale-out at 143.2 MHz (cycle-accurate lane model):")
	fmt.Printf("%8s %16s %16s %12s\n", "lanes", "model speedup", "modeled Mpps", "line rate")
	const batches, batch = 64, 64
	for _, lanes := range []int{1, 2, 4, 8} {
		s, err := sharded.New(sharded.Config{Lanes: lanes, LaneCapacity: 1024})
		if err != nil {
			return err
		}
		gen, err := traffic.NewTagGen(traffic.ProfileBell, 7)
		if err != nil {
			return err
		}
		served := 0
		for b := 0; b < batches; b++ {
			reqs := make([]sharded.Request, batch)
			for i := range reqs {
				reqs[i] = sharded.Request{Tag: gen.Sample(0, 4095), Payload: served + i}
			}
			if _, err := s.InsertBatch(reqs); err != nil {
				return err
			}
			for i := 0; i < batch; i++ {
				if _, err := s.ExtractMin(); err != nil {
					return err
				}
				served++
			}
		}
		st := s.StatsSnapshot()
		// One lane sustains clock/4 packets/s; N lanes sustain the same
		// stream in 1/speedup of the cycles.
		mpps := 143.2e6 / 4 * st.ModelSpeedup() / 1e6
		fmt.Printf("%8d %15.2fx %16.1f %9.1f Gb/s\n",
			lanes, st.ModelSpeedup(), mpps, mpps*1e6*140*8/1e9)
	}
	fmt.Println("(speedup = Σ lane cycles / max lane cycles; extracts stay serial through the select tree)")
	return nil
}
