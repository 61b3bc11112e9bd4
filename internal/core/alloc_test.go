package core

import (
	"testing"

	"wfqsort/internal/membus"
	"wfqsort/internal/raceflag"
)

// TestHotPathZeroAlloc pins the steady-state datapath to zero heap
// allocations per operation: the fabric's single access record, the
// trie's delete scratch, and the free-list allocator must absorb every
// Insert, ExtractMin, InsertExtractMin, Remove and Rerank without
// touching the heap, with or without a fabric observer installed (an
// observed access hands the observer a pointer to the fabric-owned
// record, which must not escape into a fresh allocation). Skipped under
// -race (detector instrumentation allocates on otherwise-clean paths).
func TestHotPathZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, err := New(Config{Capacity: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Warm up past the initialization counter so allocate() runs the
	// steady-state free-list path, and cycle tags so markers churn.
	tag := func(i int) int { return (i*37 + 11) % 4096 }
	for i := 0; i < 256; i++ {
		if err := s.Insert(tag(i), i%64); err != nil {
			t.Fatalf("warmup insert: %v", err)
		}
	}
	for i := 0; i < 128; i++ {
		if _, err := s.ExtractMin(); err != nil {
			t.Fatalf("warmup extract: %v", err)
		}
	}

	i := 1000
	ops := []struct {
		name string
		run  func()
	}{
		{"Insert+ExtractMin", func() {
			if err := s.Insert(tag(i), i%64); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			i++
			if _, err := s.ExtractMin(); err != nil {
				t.Fatalf("ExtractMin: %v", err)
			}
		}},
		{"InsertExtractMin", func() {
			if _, err := s.InsertExtractMin(tag(i), i%64); err != nil {
				t.Fatalf("InsertExtractMin: %v", err)
			}
			i++
		}},
		{"Insert+Remove", func() {
			if err := s.Insert(tag(i), i%64); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if found, err := s.Remove(tag(i), i%64); err != nil || !found {
				t.Fatalf("Remove = %v, %v", found, err)
			}
			i++
		}},
		{"Insert+Rerank+Remove", func() {
			if err := s.Insert(tag(i), i%64); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if found, err := s.Rerank(tag(i), i%64, tag(i+1)); err != nil || !found {
				t.Fatalf("Rerank = %v, %v", found, err)
			}
			if found, err := s.Remove(tag(i+1), i%64); err != nil || !found {
				t.Fatalf("Remove = %v, %v", found, err)
			}
			i++
		}},
	}
	for _, obs := range []membus.Observer{nil, &passObserver{}} {
		s.Fabric().SetObserver(obs)
		for _, op := range ops {
			if avg := testing.AllocsPerRun(200, op.run); avg != 0 {
				t.Fatalf("%s (observer %T) allocates %.2f objects/op, want 0", op.name, obs, avg)
			}
		}
	}
}
