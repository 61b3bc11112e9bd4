package sharded

import (
	"math/rand"
	"testing"
)

// scanMin is the reference the tree must agree with: the lowest lane
// among those holding the minimum tag, or -1 when none is set.
func scanMin(set []bool, tags []int) int {
	best := -1
	for i, ok := range set {
		if ok && (best < 0 || tags[i] < tags[best]) {
			best = i
		}
	}
	return best
}

func TestWinnerTreeSetClearReplay(t *testing.T) {
	tr := NewWinnerTree(4)
	steps := []struct {
		set       bool
		lane, tag int
		want      int
	}{
		{true, 2, 30, 2},
		{true, 0, 40, 2},
		{true, 3, 10, 3},
		{true, 1, 20, 3},
		{false, 3, 0, 1}, // clearing the winner replays its path
		{true, 1, 50, 2}, // republishing a lane overwrites its tag
		{false, 2, 0, 0},
		{false, 0, 0, 1},
		{true, 3, 5, 3},
		{false, 3, 0, 1},
		{false, 1, 0, -1},
	}
	for i, st := range steps {
		if st.set {
			tr.Set(st.lane, st.tag)
		} else {
			tr.Clear(st.lane)
		}
		if got := tr.Min(); got != st.want {
			t.Fatalf("step %d: Min %d, want %d", i, got, st.want)
		}
	}
}

func TestWinnerTreeTiesGoToLowerLane(t *testing.T) {
	tr := NewWinnerTree(8)
	for l := 7; l >= 0; l-- {
		tr.Set(l, 100)
	}
	for l := 0; l < 8; l++ {
		if got := tr.Min(); got != l {
			t.Fatalf("all tied from lane %d: Min %d, want %d", l, got, l)
		}
		tr.Clear(l)
	}
	// Ties across subtrees: lanes 6 and 3 share the minimum.
	tr.Set(6, 7)
	tr.Set(3, 7)
	tr.Set(1, 9)
	if got := tr.Min(); got != 3 {
		t.Fatalf("tie between lanes 3 and 6: Min %d, want 3", got)
	}
}

func TestWinnerTreeEmptyRoot(t *testing.T) {
	for _, lanes := range []int{1, 3, 64} {
		tr := NewWinnerTree(lanes)
		if got := tr.Min(); got != -1 {
			t.Fatalf("lanes=%d: fresh tree Min %d, want -1", lanes, got)
		}
		for l := 0; l < lanes; l++ {
			tr.Set(l, l)
		}
		for l := 0; l < lanes; l++ {
			tr.Clear(l)
		}
		if got := tr.Min(); got != -1 {
			t.Fatalf("lanes=%d: emptied tree Min %d, want -1", lanes, got)
		}
	}
}

func TestWinnerTreeDepth(t *testing.T) {
	for lanes := 1; lanes <= 64; lanes++ {
		want := 0
		for 1<<want < lanes {
			want++
		}
		tr := NewWinnerTree(lanes)
		if d := tr.Depth(); d != want {
			t.Errorf("lanes=%d: depth %d, want %d", lanes, d, want)
		}
		// The last real leaf sits beside the padding and still wins.
		tr.Set(lanes-1, 1)
		if got := tr.Min(); got != lanes-1 {
			t.Errorf("lanes=%d: only the last lane set, Min %d", lanes, got)
		}
	}
}

// TestWinnerTreeDifferential replays seeded random Set/Clear traffic
// against a linear min scan.
func TestWinnerTreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lanes := range []int{1, 2, 3, 5, 8, 13, 64} {
		tr := NewWinnerTree(lanes)
		set := make([]bool, lanes)
		tags := make([]int, lanes)
		for op := 0; op < 5000; op++ {
			l := rng.Intn(lanes)
			if rng.Intn(3) == 0 {
				tr.Clear(l)
				set[l] = false
			} else {
				tags[l] = rng.Intn(16) // a narrow range forces ties
				set[l] = true
				tr.Set(l, tags[l])
			}
			want := scanMin(set, tags)
			got := tr.Min()
			if got != want {
				t.Fatalf("lanes=%d op %d: Min %d, want %d (set %v tags %v)", lanes, op, got, want, set, tags)
			}
			if got >= 0 && tr.Tag(got) != tags[want] {
				t.Fatalf("lanes=%d op %d: Tag(%d) = %d, want %d", lanes, op, got, tr.Tag(got), tags[want])
			}
		}
	}
}
