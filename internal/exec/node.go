package exec

import (
	"fmt"
	"time"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/region"
	"autopart/internal/rewrite"
	"autopart/internal/runtime"
	"autopart/internal/sim"
)

// node is one SPMD executor node. It holds a full-size local copy of
// every region (valid only on owned elements and fresh ghosts), its own
// replica of the owner map (all replicas evolve identically), and its
// rows of the per-launch statistics. Nodes communicate exclusively
// through the transport. What the nodes of one process share is
// immutable once built: the program and the run's exchange tables
// (see exchange.go).
//
// Execution is dependency-driven, not bulk-synchronous: each launch's
// incoming messages are known in advance (buildSched), all outgoing
// messages are issued before any receive blocks, the shard runs the
// moment its last ghost dependency lands, and the launch's write-back
// receives and reduction folds are deferred — queued as a pendingFinish
// and settled only when a later launch (or the final gather) touches
// one of the fields they write. A launch over fields disjoint from
// every pending finish therefore computes while those receives are
// still in flight; that compute-communication overlap is what the
// timing columns measure.
type node struct {
	id      int
	cfg     Config
	prog    *Program
	m       *ir.Machine
	owners  map[sim.FieldKey]*region.Partition
	xs      *exchanges
	tr      Transport
	mb      *mailbox
	stats   [][]sim.NodeStats
	times   [][]NodeTiming
	pending []*pendingFinish
}

// pendingFinish is a launch whose shard has run and whose sends are out,
// but whose write-back receives and folds have not been applied yet.
type pendingFinish struct {
	sched *launchSched
	res   *rewrite.ShardResult
}

func (n *node) nodes() int { return n.cfg.Nodes }

// run executes all steps of the plan, then settles every deferred
// finish so gather reads fully merged data.
func (n *node) run() error {
	for step := 0; step < n.cfg.Steps; step++ {
		n.stats[step] = make([]sim.NodeStats, len(n.prog.Plan.Tasks))
		n.times[step] = make([]NodeTiming, len(n.prog.Plan.Tasks))
		for li, t := range n.prog.Plan.Tasks {
			if err := n.runLaunch(step, li, t); err != nil {
				return fmt.Errorf("step %d, launch %s: %w", step, t.Launch.Name, err)
			}
		}
	}
	return n.settle(len(n.pending))
}

func (n *node) send(to int, msg message) {
	n.tr.Send(n.id, to, msg)
}

// take blocks until the dependency's message lands, then verifies the
// full tag (including the metadata-derived element set) before
// returning it.
func (n *node) take(d depSpec) (message, time.Time, error) {
	msg, at, err := n.mb.take(d.key)
	if err != nil {
		return msg, at, err
	}
	k := d.key
	if err := msg.checkTag(k.kind, k.step, k.launch, k.req, k.region, k.field, d.set); err != nil {
		return msg, at, err
	}
	return msg, at, nil
}

// needsFetch reports whether a requirement pulls ghost data before the
// launch: reads do, and §5.1 guarded reductions read-modify-write their
// targets in place. WriteDiscard and buffered reductions never fetch.
func needsFetch(req runtime.Requirement) bool {
	switch req.Priv {
	case runtime.ReadOnly, runtime.ReadWrite:
		return true
	case runtime.Reduce:
		return req.Guarded
	}
	return false
}

// settle applies the first count pending finishes, oldest first: take
// the deferred write-back messages, install guarded ships, fold merge
// buffers in canonical order. Settling in queue order keeps every
// same-field write sequence identical to the bulk-synchronous executor.
func (n *node) settle(count int) error {
	for i := 0; i < count; i++ {
		pf := n.pending[i]
		start := time.Now()
		if err := n.finish(pf); err != nil {
			return fmt.Errorf("finishing step %d, launch %s: %w",
				pf.sched.step, pf.sched.task.Launch.Name, err)
		}
		n.times[pf.sched.step][pf.sched.li].WallNS += time.Since(start).Nanoseconds()
	}
	n.pending = append([]*pendingFinish{}, n.pending[count:]...)
	return nil
}

// settleTouching settles every pending finish up to (and including) the
// last one whose writes intersect fields — later launches must observe
// those folds, and pending finishes on the same field must stay
// ordered, so the settle is a queue prefix, never a subset.
func (n *node) settleTouching(fields map[rewrite.FieldKey]bool) error {
	last := -1
	for i, pf := range n.pending {
		for fk := range pf.sched.touches {
			if fields[fk] {
				last = i
				break
			}
		}
	}
	return n.settle(last + 1)
}

// runLaunch drives one launch on this node:
//
//  1. settle pending finishes that conflict with this launch's fields;
//  2. build the dependency schedule from replicated metadata;
//  3. issue every outgoing ghost piece (sends never block);
//  4. take ghost dependencies as they land and install them — the
//     shard starts the moment the last one arrives;
//  5. run the shard (rewrite.RunShard) and flush its private writes;
//  6. issue every write-back send (guarded ships, buffer merges);
//  7. defer the write-back receives and folds as a pendingFinish;
//  8. move ownership of written fields (metadata, applied immediately
//     so later schedules see it).
//
// Bit-identity survives the reordering because writes stay canonically
// ordered where it matters: folds run per field in requirement order
// via rewrite.MergeShardReductions, settles run in launch order, and
// everything else lands on disjoint element sets.
func (n *node) runLaunch(step, li int, t runtime.Task) error {
	l := t.Launch
	if err := n.settleTouching(launchFields(l)); err != nil {
		return err
	}
	lt := &n.times[step][li]
	start := time.Now()

	sched, err := n.buildSched(step, li, t)
	if err != nil {
		return err
	}
	st := &n.stats[step][li]
	parts := n.prog.Parts
	j := n.id
	bpe := n.cfg.BytesPerElem

	// Outgoing ghosts: serve peers' remote needs from owned data.
	for ri, req := range l.Reqs {
		if !needsFetch(req) {
			continue
		}
		p := parts[req.Sym]
		for _, f := range req.Fields {
			owner, err := n.ownerOf(req.Region, f)
			if err != nil {
				return err
			}
			for _, pc := range n.xs.get(p, owner).to[j] {
				msg, err := packField(n.m.Regions[req.Region], f, pc.Set)
				if err != nil {
					return err
				}
				msg.kind, msg.step, msg.launch, msg.req = ghostMsg, step, li, ri
				msg.region, msg.field = req.Region, f
				n.send(pc.Color, msg)
				st.BytesOut += float64(pc.Set.Len()) * bpe
				st.FragsOut += pc.Set.NumIntervals()
				st.MsgsOut++
			}
		}
	}

	// Incoming ghosts: the shard's compute dependencies. Install each
	// as it is taken; after the last take the shard is ready.
	for _, d := range sched.ghosts {
		msg, _, err := n.take(d)
		if err != nil {
			return err
		}
		if err := installField(n.m.Regions[d.key.region], d.key.field, &msg); err != nil {
			return err
		}
	}

	// Shard execution over this color only.
	t0 := time.Now()
	res, err := rewrite.RunShard(n.m, parts, t.Loop, j)
	if err != nil {
		return err
	}
	rewrite.FlushShard(n.m, res)
	t1 := time.Now()

	// Reduction-instance accounting: the buffer covers the instance
	// subregion minus the §5.2 private sub-partition (private elements
	// reduce directly into the local instance).
	for _, req := range l.Reqs {
		if req.Priv != runtime.Reduce || req.Guarded {
			continue
		}
		sub := parts[req.Sym].Sub(j)
		if sub.Empty() {
			continue
		}
		alloc := sub
		if req.PrivateSym != "" {
			alloc = sub.Subtract(parts[req.PrivateSym].Sub(j))
		}
		st.BufferElems += float64(alloc.Len()) * float64(len(req.Fields))
	}

	// Outgoing write-backs (guarded ships, buffer merges). A launch may
	// carry several unguarded reduction requirements on the same field
	// through different instance partitions (circuit reduces into
	// Nodes.charge via both wire endpoints). Sends and statistics stay
	// per-requirement — that is how sim charges them — but the shard
	// buffer is shared per field, so reachability is checked against the
	// union of the requirements' reach sets, and the owner-side fold
	// dedupes by sender before folding each contribution exactly once.
	mergeReach := map[rewrite.FieldKey]geometry.IndexSet{}
	var mergeOrder []rewrite.FieldKey
	for ri, req := range l.Reqs {
		if req.Priv != runtime.Reduce {
			continue
		}
		p := parts[req.Sym]
		if req.Guarded {
			for _, f := range req.Fields {
				owner, err := n.postOwnerOf(l, req.Region, f)
				if err != nil {
					return err
				}
				x := n.xs.get(p, owner)
				remote := x.remote[j]
				if remote.Empty() {
					continue
				}
				st.BytesOut += float64(remote.Len()) * bpe
				st.FragsOut += remote.NumIntervals()
				for _, pc := range x.from[j] {
					msg, err := packField(n.m.Regions[req.Region], f, pc.Set)
					if err != nil {
						return err
					}
					msg.kind, msg.step, msg.launch, msg.req = shipMsg, step, li, ri
					msg.region, msg.field = req.Region, f
					n.send(pc.Color, msg)
					st.MsgsOut++
				}
				if lost := x.uncovered[j]; !lost.Empty() {
					return fmt.Errorf("guarded write-back of %s.%s would lose updates on unowned set %s",
						req.Region, f, lost)
				}
			}
			continue
		}
		touched := p
		if req.TouchedSym != "" {
			touched = parts[req.TouchedSym]
		}
		if p.Sub(j).Empty() {
			continue
		}
		for _, f := range req.Fields {
			owner, err := n.postOwnerOf(l, req.Region, f)
			if err != nil {
				return err
			}
			fk := rewrite.FieldKey{Region: req.Region, Field: f}
			buf := res.Reductions[fk]
			if _, ok := mergeReach[fk]; !ok {
				mergeOrder = append(mergeOrder, fk)
			}
			reach := mergeReach[fk].Union(owner.Sub(j))
			x := n.xs.get(touched, owner)
			if remote := x.remote[j]; !remote.Empty() {
				st.BytesOut += float64(remote.Len()) * bpe
				st.FragsOut += remote.NumIntervals()
				for _, pc := range x.from[j] {
					var msg message
					if buf != nil {
						msg.scalars, msg.present = packBuffer(buf.Values, pc.Set)
					} else {
						msg.scalars, msg.present = packBuffer(nil, pc.Set)
					}
					msg.set = pc.Set
					msg.kind, msg.step, msg.launch, msg.req = mergeMsg, step, li, ri
					msg.region, msg.field = req.Region, f
					n.send(pc.Color, msg)
					st.MsgsOut++
				}
				reach = reach.Union(remote.Subtract(x.uncovered[j]))
			}
			mergeReach[fk] = reach
		}
	}
	// Contributions neither local nor shipped under any requirement would
	// silently vanish; the coherence protocol treats that as unsound.
	for _, fk := range mergeOrder {
		buf := res.Reductions[fk]
		if buf == nil {
			continue
		}
		reach := mergeReach[fk]
		for idx := range buf.Values {
			if !reach.Contains(idx) {
				return fmt.Errorf("reduction contribution to %s.%s[%d] has no owner to merge into",
					fk.Region, fk.Field, idx)
			}
		}
	}

	// Defer the write-back receives and folds; a later launch touching
	// the same fields (or the end of the run) settles them.
	n.pending = append(n.pending, &pendingFinish{sched: sched, res: res})

	// Writes move ownership to the writing partition (metadata; every
	// replica applies the same move at the same launch). The owner map
	// must stay a true partition: an aliased writer (e.g. an overlapping
	// user extern reused as a write partition) would give an element two
	// owners, and fold routing, ghost need-sets, and the final gather all
	// assume exactly one. Duplicated writers compute identical values
	// under snapshot semantics, so keeping the first color's copy is
	// sound — differential fuzzing caught a reduction fold landing on a
	// non-gathered replica before this disjointification.
	for _, req := range l.Reqs {
		if req.Priv != runtime.ReadWrite && req.Priv != runtime.WriteDiscard {
			continue
		}
		for _, f := range req.Fields {
			n.owners[sim.FieldKey{Region: req.Region, Field: f}] = parts[req.Sym].OwnerView()
		}
	}

	// Timing: the launch overlapped communication with compute for the
	// part of the shard's window during which at least one expected
	// write-back (this launch's or an earlier pending one's) had not
	// yet arrived.
	var outstanding []tagKey
	for _, pf := range n.pending {
		for _, d := range pf.sched.backs {
			outstanding = append(outstanding, d.key)
		}
	}
	lt.ComputeNS = t1.Sub(t0).Nanoseconds()
	lt.OverlapNS = n.overlapWindow(t0, t1, outstanding).Nanoseconds()
	lt.WallNS += time.Since(start).Nanoseconds()
	return nil
}

// overlapWindow measures how much of the window [t0, t1] passed while
// at least one of deps had not yet arrived. Arrivals only accumulate,
// so the outstanding count is non-increasing over the window: the
// answer is the time to the last arrival, clamped to the window.
func (n *node) overlapWindow(t0, t1 time.Time, deps []tagKey) time.Duration {
	if len(deps) == 0 {
		return 0
	}
	last := t0
	for _, k := range deps {
		at, ok := n.mb.arrivedAt(k)
		if !ok || at.After(t1) {
			// Still outstanding (or landed after the window): the whole
			// window overlapped.
			return t1.Sub(t0)
		}
		if at.After(last) {
			last = at
		}
	}
	if last.After(t1) {
		return t1.Sub(t0)
	}
	return last.Sub(t0)
}

// finish applies one deferred launch completion: take every write-back
// dependency, install guarded ships, collect merge contributions per
// sender, then fold each reduced field in canonical order. folds
// accumulate, per reduced field, one contribution map per sender color;
// duplicate elements arriving from the same sender under different
// requirements carry identical values (both pack the sender's one shard
// buffer), so overwriting dedupes them and each (sender, element)
// contribution folds exactly once.
func (n *node) finish(pf *pendingFinish) error {
	sc := pf.sched
	perField := map[rewrite.FieldKey][]map[int64]float64{}
	for _, fs := range sc.folds {
		perField[fs.fk] = make([]map[int64]float64, n.nodes())
	}
	for _, d := range sc.backs {
		msg, _, err := n.take(d)
		if err != nil {
			return err
		}
		if d.key.kind == shipMsg {
			if err := installField(n.m.Regions[d.key.region], d.key.field, &msg); err != nil {
				return err
			}
			continue
		}
		perColor := perField[d.fk]
		if perColor == nil {
			return fmt.Errorf("merge message %s has no fold", d.key)
		}
		for idx, v := range unpackBuffer(&msg) {
			if perColor[d.key.from] == nil {
				perColor[d.key.from] = map[int64]float64{}
			}
			perColor[d.key.from][idx] = v
		}
	}
	// Our own shard's contributions on elements we own fold locally;
	// they join the field's per-color maps once, no matter how many
	// requirements cover the field. The fold is
	// rewrite.MergeShardReductions restricted to owner.Sub(j), so the
	// distributed merge reproduces the sequential one piecewise.
	for _, fs := range sc.folds {
		perColor := perField[fs.fk]
		if buf := pf.res.Reductions[fs.fk]; buf != nil {
			for idx, v := range buf.Values {
				if fs.own.Contains(idx) {
					if perColor[n.id] == nil {
						perColor[n.id] = map[int64]float64{}
					}
					perColor[n.id][idx] = v
				}
			}
		}
		merged := make([]map[rewrite.FieldKey]*rewrite.ReduceBuffer, len(perColor))
		for k, vals := range perColor {
			if len(vals) > 0 {
				merged[k] = map[rewrite.FieldKey]*rewrite.ReduceBuffer{
					fs.fk: {Op: fs.op, Values: vals},
				}
			}
		}
		rewrite.MergeShardReductions(n.m, merged)
	}
	return nil
}

func (n *node) ownerOf(regionName, field string) (*region.Partition, error) {
	owner := n.owners[sim.FieldKey{Region: regionName, Field: field}]
	if owner == nil {
		return nil, fmt.Errorf("no owner for %s.%s", regionName, field)
	}
	return owner, nil
}

// postOwnerOf returns the owner partition of a field as it will stand
// AFTER the launch's ownership moves. Reduction write-backs (ships and
// merges) must land on the copies that later launches and the final
// gather read: when the same launch also writes the field through an
// RW/WD requirement, routing them by the owner at launch entry folds
// contributions into replicas that stop being authoritative the moment
// the launch completes — differential fuzzing caught exactly that with
// a centered and an uncentered reduction of one field sharing a launch.
// The last write requirement wins, matching the ownership-move loop.
func (n *node) postOwnerOf(l *runtime.Launch, regionName, field string) (*region.Partition, error) {
	owner, err := n.ownerOf(regionName, field)
	if err != nil {
		return nil, err
	}
	for _, req := range l.Reqs {
		if req.Priv != runtime.ReadWrite && req.Priv != runtime.WriteDiscard {
			continue
		}
		if req.Region != regionName {
			continue
		}
		for _, f := range req.Fields {
			if f == field {
				owner = n.prog.Parts[req.Sym].OwnerView()
			}
		}
	}
	return owner, nil
}
