package rewrite

import (
	"fmt"
	"sort"

	"autopart/internal/ir"
	"autopart/internal/region"
)

// Executor runs parallel loops against concrete regions and partitions
// with parallel semantics: each task (color) reads the launch-entry
// snapshot plus its own writes, writes flush at task end, and uncentered
// reduction contributions collect in per-task buffers merged after all
// tasks. Every access is containment-checked against the task's
// subregion; a violation means the partitioning was unsound and aborts
// the launch.
type Executor struct {
	M *ir.Machine
	// Parts binds canonical partition symbols to evaluated partitions.
	Parts map[string]*region.Partition
}

// NewExecutor creates an executor over a machine.
func NewExecutor(m *ir.Machine) *Executor {
	return &Executor{M: m, Parts: map[string]*region.Partition{}}
}

// Bind registers an evaluated partition.
func (ex *Executor) Bind(sym string, p *region.Partition) *Executor {
	ex.Parts[sym] = p
	return ex
}

// FieldKey identifies a region field.
type FieldKey struct{ Region, Field string }

// ReduceBuffer accumulates one task's uncentered reduction contributions
// for one field, folded from the op's identity in iteration order.
type ReduceBuffer struct {
	Op     string
	Values map[int64]float64
}

// ShardResult is the outcome of running one color's shard of a parallel
// loop against a stable snapshot: the task's private writes (plain
// stores, centered reductions, and §5.1 guarded in-place reductions),
// one dense overlay per written field, and its uncentered reduction
// contributions. Nothing is applied to any machine — the caller decides
// how: the sequential Executor flushes shards in ascending color order
// and merges buffers after the launch; the distributed executor ships
// remote-owned pieces to their owners.
type ShardResult struct {
	Writes     []*Overlay
	Reductions map[FieldKey]*ReduceBuffer
}

// RunShard executes one color's task of pl on the loop's shard kernel,
// compiled on the loop's first RunShard. Reads see m's current region
// data plus the task's own earlier writes; m is not mutated, so several
// shards may run against the same machine (a launch-entry snapshot, or a
// distributed node's local arrays made current by a ghost exchange).
func RunShard(m *ir.Machine, parts map[string]*region.Partition, pl *ParallelLoop, color int) (*ShardResult, error) {
	iter, ok := parts[pl.IterSym]
	if !ok {
		return nil, fmt.Errorf("launch %s: unbound iteration partition %q", pl, pl.IterSym)
	}
	k := pl.kernel()
	s := k.bind(m, parts, color)
	for _, iv := range iter.Sub(color).Intervals() {
		for i := iv.Lo; i < iv.Hi; i++ {
			clear(s.frame)
			s.frame[k.loopSlot] = ir.IndexValue(i)
			if err := s.run(k.body); err != nil {
				return nil, fmt.Errorf("task %d, iteration %d: %w", color, i, err)
			}
		}
	}
	return s.result(), nil
}

// RunLaunch executes one parallel loop over all colors of its iteration
// partition.
func (ex *Executor) RunLaunch(pl *ParallelLoop) error {
	iter, ok := ex.Parts[pl.IterSym]
	if !ok {
		return fmt.Errorf("launch %s: unbound iteration partition %q", pl, pl.IterSym)
	}

	// Launch-entry snapshot of every region (tasks read this, not each
	// other's writes).
	snapshot := map[string]*region.Region{}
	for name, r := range ex.M.Regions {
		snapshot[name] = r.CloneData()
	}
	snapM := &ir.Machine{Regions: snapshot, Funcs: ex.M.Funcs, Partitions: ex.M.Partitions}

	perColor := make([]map[FieldKey]*ReduceBuffer, iter.NumSubs())
	for color := 0; color < iter.NumSubs(); color++ {
		res, err := RunShard(snapM, ex.Parts, pl, color)
		if err != nil {
			return err
		}
		// Flush in task order (overlapping aliased writes resolve
		// last-color-wins).
		FlushShard(ex.M, res)
		perColor[color] = res.Reductions
	}

	MergeShardReductions(ex.M, perColor)
	return nil
}

// FlushShard applies a shard's private writes (plain stores, centered
// reductions, and §5.1 guarded in-place reductions) to m's live
// regions. Reduction buffers are not touched — merge those with
// MergeShardReductions once every contributing shard has flushed.
func FlushShard(m *ir.Machine, res *ShardResult) {
	for _, ov := range res.Writes {
		if !ov.written() {
			continue
		}
		r := m.Regions[ov.Key.Region]
		if ov.indexes != nil {
			data := r.Index(ov.Key.Field)
			ov.each(func(off int64) { data[ov.lo+off] = ov.indexes[off] })
		} else {
			data := r.Scalar(ov.Key.Field)
			ov.each(func(off int64) { data[ov.lo+off] = ov.scalars[off] })
		}
	}
}

// MergeShardReductions folds per-color reduction buffers into the live
// regions. The order is fixed: fields sorted by (region, field),
// elements ascending, and each element's per-color contributions in
// ascending color order seeded by the first contributing color. A
// distributed executor reproduces exactly this fold piecewise at each
// element's owner, which is why merged results are deterministic and
// node-count independent.
func MergeShardReductions(m *ir.Machine, perColor []map[FieldKey]*ReduceBuffer) {
	type elem struct {
		op   string
		idxs map[int64]bool
		// bufs are the field's buffers in ascending color order; colors
		// without one are left out, so each element's fold probes only
		// the colors that contributed to the field.
		bufs []*ReduceBuffer
	}
	fields := map[FieldKey]*elem{}
	for _, bufs := range perColor {
		for k, buf := range bufs {
			e := fields[k]
			if e == nil {
				e = &elem{op: buf.Op, idxs: map[int64]bool{}}
				fields[k] = e
			}
			e.bufs = append(e.bufs, buf)
			for idx := range buf.Values {
				e.idxs[idx] = true
			}
		}
	}
	keys := make([]FieldKey, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Region != keys[j].Region {
			return keys[i].Region < keys[j].Region
		}
		return keys[i].Field < keys[j].Field
	})
	for _, k := range keys {
		e := fields[k]
		data := m.Regions[k.Region].Scalar(k.Field)
		idxs := make([]int64, 0, len(e.idxs))
		for idx := range e.idxs {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			var v float64
			first := true
			for _, buf := range e.bufs {
				c, ok := buf.Values[idx]
				if !ok {
					continue
				}
				if first {
					v = c
					first = false
				} else {
					v = ir.ApplyReduce(e.op, v, c)
				}
			}
			data[idx] = ir.ApplyReduce(e.op, data[idx], v)
		}
	}
}
