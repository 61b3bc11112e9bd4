package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must honour.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny shrinks a workload to run in well under a second.
func tiny(t *testing.T, name string, trace bool) config {
	t.Helper()
	cfg, err := defaultConfig(name, 7, 0.3, trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Windows = 3
	cfg.Warmup = 50 * time.Millisecond
	cfg.Setups = 2
	if cfg.Live > 0 {
		cfg.Live = 4096
		cfg.PrefixSteps = 1000
	}
	return cfg
}

func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, harness runs %s", got, want)
	}
}

// TestWorkloadsAtTinySize runs every workload untraced and traced and
// checks that every gate passes and that exactly the metrics
// BENCHMARK.json declares are emitted, each with its unit.
func TestWorkloadsAtTinySize(t *testing.T) {
	b := readBenchmark(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			sub := name + "/untraced"
			if trace {
				sub = name + "/traced"
			}
			t.Run(sub, func(t *testing.T) {
				rep, err := runWorkload(tiny(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Gates) == 0 {
					t.Error("no correctness gates ran")
				}
				for _, g := range rep.Gates {
					if !g.OK {
						t.Errorf("gate %s failed: %s", g.Name, g.Detail)
					}
				}
				res, err := rep.result()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					case !trace && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestRunPrintsResultLine drives the command line and checks the last
// stdout line has exactly the keys the benchmark contract names.
func TestRunPrintsResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "engine-rtt", "--seed", "3", "--seconds", "0.3", "--trace", "0", "-out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", out.String())
	}
}
