package core

import (
	"math/rand"
	"reflect"
	"testing"

	"wfqsort/internal/membus"
)

// passObserver is a fabric observer that changes nothing: it counts the
// accesses it is offered and returns 0, nil.
type passObserver struct {
	observed, afterWrites int
}

func (o *passObserver) Observe(*membus.Region, *membus.Access) (uint64, error) {
	o.observed++
	return 0, nil
}

func (o *passObserver) AfterWrite(*membus.Region, *membus.Access) error {
	o.afterWrites++
	return nil
}

// timersConfig is the 20-bit deadline-queue geometry: 5 levels of
// 4-bit literals over 2^20 links.
func timersConfig() Config {
	return Config{Levels: 5, LiteralBits: 4, Capacity: 1 << 20}
}

// TestObserverNeutrality runs one seeded dynamic script on two sorters,
// one with no fabric observer and one with a pass-through observer,
// and requires identical results, clock, and region and bank counters.
// An unobserved access builds no access record, so this pins the
// unobserved path's charges to the observed path's.
func TestObserverNeutrality(t *testing.T) {
	plain := mustNew(t, timersConfig())
	watched := mustNew(t, timersConfig())
	obs := &passObserver{}
	watched.Fabric().SetObserver(obs)

	type entry struct{ tag, payload int }
	rng := rand.New(rand.NewSource(1))
	var live []entry
	floor, nextPayload := 0, 0
	const (
		liveCap = 2048
		window  = 32 // distinct deadlines in play: ~64 entries per tag at liveCap
	)
	arm := func() entry {
		e := entry{floor + rng.Intn(window), nextPayload}
		nextPayload = (nextPayload + 1) % (1 << 24)
		return e
	}
	take := func(i int) entry {
		e := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return e
	}
	both := func(step int, name string, op func(s *Sorter) (any, error)) any {
		t.Helper()
		a, errA := op(plain)
		b, errB := op(watched)
		if errA != nil || errB != nil {
			t.Fatalf("step %d %s: errors %v / %v", step, name, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d %s: results diverge: %+v vs %+v", step, name, a, b)
		}
		return a
	}
	extracted := func(v any) {
		got := v.(entry)
		for i, e := range live {
			if e == got {
				take(i)
				floor = got.tag
				return
			}
		}
		t.Fatalf("extracted %+v, not live", got)
	}

	for step := 0; step < 16000; step++ {
		switch k := rng.Intn(10); {
		case step < liveCap || (k < 4 && len(live) < liveCap):
			e := arm()
			both(step, "Insert", func(s *Sorter) (any, error) { return nil, s.Insert(e.tag, e.payload) })
			live = append(live, e)
		case k < 7: // cancel, biased to the newest
			i := len(live) - 1 - rng.Intn(min(len(live), 64))
			e := take(i)
			if found := both(step, "Remove", func(s *Sorter) (any, error) { return s.Remove(e.tag, e.payload) }); found != true {
				t.Fatalf("step %d: Remove(%+v) missed", step, e)
			}
		case k < 8:
			i := rng.Intn(len(live))
			n := arm()
			n.payload = live[i].payload
			if found := both(step, "Rerank", func(s *Sorter) (any, error) { return s.Rerank(live[i].tag, n.payload, n.tag) }); found != true {
				t.Fatalf("step %d: Rerank(%+v) missed", step, live[i])
			}
			live[i] = n
		case k < 9:
			extracted(both(step, "ExtractMin", func(s *Sorter) (any, error) {
				e, err := s.ExtractMin()
				return entry{e.Tag, e.Payload}, err
			}))
		default:
			n := arm()
			extracted(both(step, "InsertExtractMin", func(s *Sorter) (any, error) {
				e, err := s.InsertExtractMin(n.tag, n.payload)
				return entry{e.Tag, e.Payload}, err
			}))
			live = append(live, n)
		}
	}

	if obs.observed == 0 || obs.afterWrites == 0 {
		t.Fatalf("observer saw %d accesses, %d writes: the script never reached it", obs.observed, obs.afterWrites)
	}
	if a, b := plain.Fabric().Clock().Now(), watched.Fabric().Clock().Now(); a != b {
		t.Fatalf("clock %d without observer, %d with", a, b)
	}
	if a, b := plain.StatsSnapshot(), watched.StatsSnapshot(); a != b {
		t.Fatalf("sorter stats diverge:\n%+v\n%+v", a, b)
	}
	pr, wr := plain.Fabric().Regions(), watched.Fabric().Regions()
	if len(pr) != len(wr) {
		t.Fatalf("%d regions without observer, %d with", len(pr), len(wr))
	}
	for i := range pr {
		if pr[i].Name() != wr[i].Name() {
			t.Fatalf("region %d: %q vs %q", i, pr[i].Name(), wr[i].Name())
		}
		if a, b := pr[i].StatsSnapshot(), wr[i].StatsSnapshot(); a != b {
			t.Fatalf("region %q stats diverge:\n%+v\n%+v", pr[i].Name(), a, b)
		}
		if a, b := pr[i].BankStats(), wr[i].BankStats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("region %q bank stats diverge:\n%+v\n%+v", pr[i].Name(), a, b)
		}
	}
	if err := watched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
