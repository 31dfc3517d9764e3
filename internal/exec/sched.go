package exec

import (
	"fmt"
	"sync"
	"time"

	"autopart/internal/geometry"
	"autopart/internal/rewrite"
	"autopart/internal/runtime"
)

// This file is the dependency machinery that replaces the old
// bulk-synchronous launch phases: every (step, launch) gets a schedule
// of the exact messages it must receive, computed purely from
// replicated metadata before any data moves, and a mailbox matches
// deliveries to expectations by tag in whatever order the transport
// produces them. Because matching is content-addressed — never
// positional — any delivery schedule yields the same data, which the
// flaky transport's chaos testing relies on.

// tagKey identifies one protocol message: every field a sender stamps,
// plus the sender itself. Unique per message — within one launch a
// (req, field) pair produces at most one piece per peer.
type tagKey struct {
	kind          msgKind
	step, launch  int
	req           int
	region, field string
	from          int
}

func keyOf(m *message) tagKey {
	return tagKey{
		kind: m.kind, step: m.step, launch: m.launch, req: m.req,
		region: m.region, field: m.field, from: m.from,
	}
}

func (k tagKey) String() string {
	return fmt.Sprintf("%s step=%d launch=%d req=%d %s.%s from peer %d",
		k.kind, k.step, k.launch, k.req, k.region, k.field, k.from)
}

// arrival is one delivered message plus its receive timestamp (the
// overlap accounting reads the timestamps).
type arrival struct {
	msg message
	at  time.Time
}

// mailbox is a node's tag-addressed receive buffer. One receiver
// goroutine puts deliveries in; the node goroutine takes them out by
// tag, blocking until the matching message lands. Messages for future
// launches buffer here until their schedule claims them.
type mailbox struct {
	mu      sync.Mutex
	arrived map[tagKey]arrival
	wake    chan struct{} // broadcast: closed and replaced on every event
	dead    map[int]bool  // peers that closed their send side
	anyDead bool          // an unattributable peer death (transport failure)
	closed  bool          // all peers done; nothing more will arrive
	err     error         // first protocol violation (e.g. duplicate tag)
}

func newMailbox() *mailbox {
	return &mailbox{
		arrived: map[tagKey]arrival{},
		wake:    make(chan struct{}),
		dead:    map[int]bool{},
	}
}

func (mb *mailbox) broadcastLocked() {
	close(mb.wake)
	mb.wake = make(chan struct{})
}

// put records a delivery. A duplicate tag means a peer violated the
// protocol; it is latched as an error rather than silently overwritten.
func (mb *mailbox) put(m message) {
	at := time.Now()
	k := keyOf(&m)
	mb.mu.Lock()
	if _, dup := mb.arrived[k]; dup {
		if mb.err == nil {
			mb.err = fmt.Errorf("duplicate message %s", k)
		}
	} else {
		mb.arrived[k] = arrival{msg: m, at: at}
	}
	mb.broadcastLocked()
	mb.mu.Unlock()
}

// peerDead marks one sender as finished (from = -1: unknown sender).
func (mb *mailbox) peerDead(from int) {
	mb.mu.Lock()
	if from < 0 {
		mb.anyDead = true
	} else {
		mb.dead[from] = true
	}
	mb.broadcastLocked()
	mb.mu.Unlock()
}

// close marks the whole inbox drained (every sender finished).
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.broadcastLocked()
	mb.mu.Unlock()
}

// take removes and returns the message with tag k, blocking until it
// arrives. It fails fast if the sender (or the transport) died first.
func (mb *mailbox) take(k tagKey) (message, time.Time, error) {
	for {
		mb.mu.Lock()
		if a, ok := mb.arrived[k]; ok {
			delete(mb.arrived, k)
			mb.mu.Unlock()
			return a.msg, a.at, nil
		}
		if mb.err != nil {
			err := mb.err
			mb.mu.Unlock()
			return message{}, time.Time{}, err
		}
		if mb.closed || mb.anyDead || mb.dead[k.from] {
			mb.mu.Unlock()
			return message{}, time.Time{}, fmt.Errorf("peer %d exited before sending %s", k.from, k)
		}
		wake := mb.wake
		mb.mu.Unlock()
		<-wake
	}
}

// arrivedAt reports whether the keyed message has landed (it may not
// have been taken yet) and when. Non-blocking; used by the overlap
// accounting only.
func (mb *mailbox) arrivedAt(k tagKey) (time.Time, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	a, ok := mb.arrived[k]
	return a.at, ok
}

// leftoverErr reports messages that were delivered but never claimed by
// any schedule — each one is a protocol violation.
func (mb *mailbox) leftoverErr() error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.err != nil {
		return mb.err
	}
	for k := range mb.arrived {
		return fmt.Errorf("unclaimed message %s (%d total)", k, len(mb.arrived))
	}
	return nil
}

// depSpec is one expected incoming message: its tag and the element
// set the replicated metadata says it must carry.
type depSpec struct {
	key tagKey
	set geometry.IndexSet
	fk  rewrite.FieldKey
}

// foldSpec is one reduced field's owner-side fold: the §5.2 merge of
// per-color contributions into the elements this node owns, applied in
// first-requirement-encounter order exactly as the bulk-synchronous
// executor did.
type foldSpec struct {
	fk  rewrite.FieldKey
	op  string
	own geometry.IndexSet // owner.Sub(j) at launch entry: the seed restriction
}

// launchSched is one (step, launch) dependency schedule on one node:
// which messages must land before the shard can run (ghosts), which
// must land before the launch can finish (write-backs), and the folds
// the finish performs. Sender and receiver read every element set from
// the same exchange table (exchange.go), built from replicated
// metadata, which is what makes tag-matching sound.
type launchSched struct {
	step, li int
	task     runtime.Task
	// ghosts are the before-compute dependencies in canonical
	// (requirement, field, owner-piece) order.
	ghosts []depSpec
	// backs are the write-back dependencies (guarded ships and buffer
	// merges), canonical order.
	backs []depSpec
	// folds lists the reduced fields in fold order.
	folds []foldSpec
	// touches are the fields the deferred finish will write (ship
	// installs and folds): a later launch touching any of them must
	// settle this one first.
	touches map[rewrite.FieldKey]bool
}

// buildSched computes the launch's dependency schedule and charges all
// incoming-side statistics (the executor knows what it will receive
// before receiving it). It must run before the launch's ownership
// update: ghost sets are relative to owners at launch entry (where
// valid data IS), while write-back sets use postOwnerOf (where valid
// data will be READ after the launch), exactly as the send side keys
// its tables.
func (n *node) buildSched(step, li int, t runtime.Task) (*launchSched, error) {
	l := t.Launch
	st := &n.stats[step][li]
	parts := n.prog.Parts
	j := n.id
	bpe := n.cfg.BytesPerElem
	sc := &launchSched{step: step, li: li, task: t, touches: map[rewrite.FieldKey]bool{}}

	// Ghost dependencies: every remote-owned piece of a read set.
	for ri, req := range l.Reqs {
		if !needsFetch(req) {
			continue
		}
		p := parts[req.Sym]
		for _, f := range req.Fields {
			owner, err := n.ownerOf(req.Region, f)
			if err != nil {
				return nil, err
			}
			x := n.xs.get(p, owner)
			remote := x.remote[j]
			if remote.Empty() {
				continue
			}
			st.BytesIn += float64(remote.Len()) * bpe
			st.FragsIn += remote.NumIntervals()
			for _, pc := range x.from[j] {
				sc.ghosts = append(sc.ghosts, depSpec{
					key: tagKey{ghostMsg, step, li, ri, req.Region, f, pc.Color},
					set: pc.Set,
					fk:  rewrite.FieldKey{Region: req.Region, Field: f},
				})
				st.MsgsIn++
			}
			if lost := x.uncovered[j]; !lost.Empty() {
				return nil, fmt.Errorf("no valid copy of %s.%s for ghost set %s (owner covers only %s)",
					req.Region, f, remote, remote.Subtract(lost))
			}
		}
	}

	// Write-back dependencies: guarded ships and buffer merges landing
	// on elements this node owns, plus the folds that consume them.
	foldSeen := map[rewrite.FieldKey]bool{}
	for ri, req := range l.Reqs {
		if req.Priv != runtime.Reduce {
			continue
		}
		p := parts[req.Sym]
		if req.Guarded {
			for _, f := range req.Fields {
				owner, err := n.postOwnerOf(l, req.Region, f)
				if err != nil {
					return nil, err
				}
				fk := rewrite.FieldKey{Region: req.Region, Field: f}
				for _, pc := range n.xs.get(p, owner).to[j] {
					sc.backs = append(sc.backs, depSpec{
						key: tagKey{shipMsg, step, li, ri, req.Region, f, pc.Color},
						set: pc.Set,
						fk:  fk,
					})
					sc.touches[fk] = true
					st.BytesIn += float64(pc.Set.Len()) * bpe
					st.FragsIn += pc.Set.NumIntervals()
					st.MsgsIn++
				}
			}
			continue
		}
		touched := p
		if req.TouchedSym != "" {
			touched = parts[req.TouchedSym]
		}
		for _, f := range req.Fields {
			owner, err := n.postOwnerOf(l, req.Region, f)
			if err != nil {
				return nil, err
			}
			fk := rewrite.FieldKey{Region: req.Region, Field: f}
			if !foldSeen[fk] {
				foldSeen[fk] = true
				sc.folds = append(sc.folds, foldSpec{fk: fk, op: req.ReduceOp, own: owner.Sub(j)})
				sc.touches[fk] = true
			}
			for _, pc := range n.xs.get(touched, owner).to[j] {
				// A peer with an empty instance subregion skips its
				// merges altogether (see runLaunch).
				if p.Sub(pc.Color).Empty() {
					continue
				}
				sc.backs = append(sc.backs, depSpec{
					key: tagKey{mergeMsg, step, li, ri, req.Region, f, pc.Color},
					set: pc.Set,
					fk:  fk,
				})
				st.BytesIn += float64(pc.Set.Len()) * bpe
				st.FragsIn += pc.Set.NumIntervals()
				st.MsgsIn++
			}
		}
	}
	return sc, nil
}

// launchFields collects every field a launch's requirements name, in
// any privilege — the conflict set against pending finishes.
func launchFields(l *runtime.Launch) map[rewrite.FieldKey]bool {
	out := map[rewrite.FieldKey]bool{}
	for _, req := range l.Reqs {
		for _, f := range req.Fields {
			out[rewrite.FieldKey{Region: req.Region, Field: f}] = true
		}
	}
	return out
}
