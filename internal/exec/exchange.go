package exec

import (
	"sync"

	"autopart/internal/geometry"
	"autopart/internal/region"
)

// exchange is the communication geometry of one (instance partition,
// owner partition) pair, for every color at once. Each color k needs
// the part of its instance subregion it does not own; that part splits
// across the owners that hold it. The sets derive from replicated
// metadata only, so one table serves every node, and the side that
// receives a piece and the side that sends it read the same entry.
//
// Ghosts flow from owners to instances (node j sends to[j], receives
// from[j]); guarded ships and reduction merges flow the other way
// (node j sends from[j], receives to[j]).
type exchange struct {
	// remote[k] is inst.Sub(k) \ owner.Sub(k).
	remote []geometry.IndexSet
	// from[k] is remote[k] split by owner: one piece per owner color c
	// holding part of it (Color = c), ascending c.
	from [][]region.OwnedPiece
	// to[j] is the transpose of from: one piece remote[k] ∩
	// owner.Sub(j) per peer k (Color = k), ascending k.
	to [][]region.OwnedPiece
	// uncovered[k] is the part of remote[k] that no owner holds.
	uncovered []geometry.IndexSet
}

func newExchange(inst, owner *region.Partition) *exchange {
	n := inst.NumSubs()
	x := &exchange{
		remote:    make([]geometry.IndexSet, n),
		from:      make([][]region.OwnedPiece, n),
		to:        make([][]region.OwnedPiece, n),
		uncovered: make([]geometry.IndexSet, n),
	}
	for k := 0; k < n; k++ {
		x.remote[k] = inst.Sub(k).Subtract(owner.Sub(k))
		if x.remote[k].Empty() {
			continue
		}
		x.from[k] = region.SplitByOwner(x.remote[k], owner)
		for _, pc := range x.from[k] {
			x.to[pc.Color] = append(x.to[pc.Color], region.OwnedPiece{Color: k, Set: pc.Set})
		}
		x.uncovered[k] = x.remote[k].Subtract(owner.UnionAll())
	}
	return x
}

// exchanges is one run's lazily filled set of exchange tables, keyed by
// partition identity. Every in-process node of a run shares one set;
// each table is built once, by whichever node asks first, and is
// read-only afterwards.
type exchanges struct {
	m sync.Map // exchangeKey → *exchangeSlot
}

type exchangeKey struct{ inst, owner *region.Partition }

type exchangeSlot struct {
	once sync.Once
	x    *exchange
}

// get returns the table of (inst, owner), building it on first use.
func (xs *exchanges) get(inst, owner *region.Partition) *exchange {
	k := exchangeKey{inst, owner}
	v, ok := xs.m.Load(k)
	if !ok {
		v, _ = xs.m.LoadOrStore(k, &exchangeSlot{})
	}
	s := v.(*exchangeSlot)
	s.once.Do(func() { s.x = newExchange(inst, owner) })
	return s.x
}
