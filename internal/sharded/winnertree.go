package sharded

import "math/bits"

// WinnerTree is the min-combining select tree over per-lane head tags:
// a fixed tournament of log₂(N) comparator levels, the software
// analogue of the paper's select & look-ahead matcher fanning the lanes
// back into one ordered output. Publishing or clearing one lane's head
// replays only that leaf's root path, and reading the global minimum is
// one read of the root, so serving stays fixed-time in the lane count,
// not the occupancy. ShardedSorter selects its next lane with it, and
// the engine's merge stage orders the lanes' served rings with it.
//
// The representation is flat: tag holds each lane's head tag, node the
// winning lane of each subtree (1-based, leaves at [size, size+lanes)),
// and -1 marks an empty subtree. Equal tags resolve to the lower lane.
// A WinnerTree has a single writer; it is not safe for concurrent use.
type WinnerTree struct {
	size int
	tag  []int // head tag per lane, valid while the leaf is set
	node []int // winner lane per subtree, -1 for empty
}

// NewWinnerTree builds an empty tree over lanes leaves, padded to a
// power of two.
func NewWinnerTree(lanes int) *WinnerTree {
	size := 1
	for size < lanes {
		size <<= 1
	}
	t := &WinnerTree{size: size, tag: make([]int, size), node: make([]int, 2*size)}
	for i := range t.node {
		t.node[i] = -1
	}
	return t
}

// Set publishes lane's head tag and replays its root path.
func (t *WinnerTree) Set(lane, tag int) {
	t.tag[lane] = tag
	t.node[t.size+lane] = lane
	t.ascend(lane)
}

// Clear removes lane's head and replays its root path.
func (t *WinnerTree) Clear(lane int) {
	t.node[t.size+lane] = -1
	t.ascend(lane)
}

// ascend replays lane's root path: one comparator per level.
func (t *WinnerTree) ascend(lane int) {
	for i := (t.size + lane) / 2; i >= 1; i /= 2 {
		l, r := t.node[2*i], t.node[2*i+1]
		switch {
		case l < 0:
			t.node[i] = r
		case r < 0:
			t.node[i] = l
		case t.tag[r] < t.tag[l]:
			t.node[i] = r
		default:
			t.node[i] = l
		}
	}
}

// Min returns the lane holding the minimum head tag, or -1 when every
// leaf is empty.
func (t *WinnerTree) Min() int { return t.node[1] }

// Tag returns lane's published head tag (meaningful while it is set).
func (t *WinnerTree) Tag(lane int) int { return t.tag[lane] }

// Depth returns the comparator levels between a leaf and the root.
func (t *WinnerTree) Depth() int { return bits.Len(uint(t.size)) - 1 }
