package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"autopart/internal/geometry"
	"autopart/internal/region"
)

// randSubs draws n random subsets of [0, size): each color is empty
// with probability 1/5, otherwise a handful of random intervals, so
// colors overlap freely (an aliased instance partition).
func randSubs(rng *rand.Rand, n int, size int64) []geometry.IndexSet {
	subs := make([]geometry.IndexSet, n)
	for k := range subs {
		if rng.Intn(5) == 0 {
			continue
		}
		var s geometry.IndexSet
		for i := rng.Intn(4); i >= 0; i-- {
			lo := rng.Int63n(size)
			s = s.Union(geometry.Range(lo, lo+1+rng.Int63n(size-lo)))
		}
		subs[k] = s
	}
	return subs
}

// randOwners draws a disjoint owner map over [0, size) that leaves
// about a fifth of the elements unowned and some colors owning nothing.
func randOwners(rng *rand.Rand, n int, size int64) []geometry.IndexSet {
	elems := make([][]int64, n)
	for e := int64(0); e < size; e++ {
		if c := rng.Intn(n + n/4 + 1); c < n {
			elems[c] = append(elems[c], e)
		}
	}
	subs := make([]geometry.IndexSet, n)
	for k, ks := range elems {
		subs[k] = geometry.FromSlice(ks)
	}
	return subs
}

// TestExchangeMatchesPairwise checks every exchange table against the
// per-pair formulas the senders and receivers used before the tables
// existed: remote and from as the receiving side computed them,
// SplitByOwner plus a union of the pieces for coverage, and to as the
// sending side's p.Sub(k) \ owner.Sub(k) ∩ owner.Sub(j) over ascending
// peers k.
func TestExchangeMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		size := int64(1 + rng.Intn(120))
		r := region.New("r", size)
		inst := region.NewPartition("p", r, randSubs(rng, n, size))
		ownerSubs := randOwners(rng, n, size)
		if trial%4 == 3 {
			// Overlapping owners: the transpose must still hold.
			ownerSubs = randSubs(rng, n, size)
		}
		owner := region.NewPartition("o", r, ownerSubs)
		x := newExchange(inst, owner)

		for k := 0; k < n; k++ {
			remote := inst.Sub(k).Subtract(owner.Sub(k))
			if !x.remote[k].Equal(remote) {
				t.Fatalf("trial %d: remote[%d] = %s, want %s", trial, k, x.remote[k], remote)
			}
			from := region.SplitByOwner(remote, owner)
			if !samePieces(x.from[k], from) {
				t.Fatalf("trial %d: from[%d] = %v, want %v", trial, k, x.from[k], from)
			}
			covered := geometry.IndexSet{}
			for _, pc := range from {
				covered = covered.Union(pc.Set)
			}
			if want := remote.Subtract(covered); !x.uncovered[k].Equal(want) {
				t.Fatalf("trial %d: uncovered[%d] = %s, want %s", trial, k, x.uncovered[k], want)
			}
		}
		for j := 0; j < n; j++ {
			var to []region.OwnedPiece
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				piece := inst.Sub(k).Subtract(owner.Sub(k)).Intersect(owner.Sub(j))
				if !piece.Empty() {
					to = append(to, region.OwnedPiece{Color: k, Set: piece})
				}
			}
			if !samePieces(x.to[j], to) {
				t.Fatalf("trial %d: to[%d] = %v, want %v", trial, j, x.to[j], to)
			}
		}
	}
}

func samePieces(got, want []region.OwnedPiece) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Color != want[i].Color || !got[i].Set.Equal(want[i].Set) {
			return false
		}
	}
	return true
}

// TestExchangesMemo checks that a table set builds one table per
// (instance, owner) pair, by partition identity, and hands every caller
// the same one.
func TestExchangesMemo(t *testing.T) {
	r := region.New("r", 10)
	a := region.Equal("a", r, 2)
	b := region.Equal("b", r, 2)
	var xs exchanges
	first := xs.get(a, b)
	if xs.get(a, b) != first {
		t.Error("the same pair built twice")
	}
	if xs.get(b, a) == first || xs.get(a, a) == first {
		t.Error("different pairs share a table")
	}
	if !reflect.DeepEqual(first, newExchange(a, b)) {
		t.Error("memoized table differs from a fresh build")
	}
}
