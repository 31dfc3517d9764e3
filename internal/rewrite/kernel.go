package rewrite

import (
	"fmt"
	"math/bits"

	"autopart/internal/geometry"
	"autopart/internal/ir"
	"autopart/internal/region"
)

// kernel is a ParallelLoop body compiled once for every shard that runs
// it. Variables are frame slots; every statement that touches machine
// state (a region access, an index function, a membership space) holds
// an index into a binding table that each RunShard fills once; scalar
// expressions are closures over the frame. The kernel is immutable after
// compilation, so any number of shards may run it concurrently.
type kernel struct {
	names    []string // slot → variable name, for error text
	loopSlot int
	body     []kop
	binds    []bindSpec
	// writes lists the fields with a dense write overlay and, for each,
	// the binding entries of the stores into it (their subregions'
	// hull sizes the overlay); reduces lists the buffered fields.
	writes  []writeSpec
	reduces []FieldKey
}

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opStoreGuarded
	opStoreBuffered
	opLet
	opApply
	opAlias
	opInner
	opIfIn
	opIfCmp
	opFail
)

// kop is one compiled statement.
type kop struct {
	kind opKind
	stmt ir.Stmt // error text only
	dst  int     // slot written: Load, Let, Apply, Alias, Inner's variable
	src  int     // slot read: access index, Apply argument, Alias source, IfIn index
	bind int     // binding-table entry
	buf  int     // opStoreBuffered: reduction buffer entry
	op   string  // store operator, or IfCmp comparison
	rhs  scalarFn
	l, r scalarFn
	then []kop // IfIn/IfCmp then-branch, Inner body
	els  []kop
	err  error // opFail: the error the statement raises when reached
}

type bindKind uint8

const (
	bindAccess bindKind = iota
	bindFunc
	bindSpace
)

// bindSpec says what one binding-table entry resolves in each RunShard.
type bindSpec struct {
	kind bindKind
	stmt ir.Stmt
	// bindAccess: the access plan and the accessed field (an Inner's
	// range field); write is the overlay entry of the field, or -1.
	info          *AccessInfo
	region, field string
	write         int
	// bindFunc: the index function; bindSpace: the guard's space.
	name string
}

type writeSpec struct {
	key    FieldKey
	stores []int // binding entries
}

// scalarFn evaluates a compiled scalar expression over a frame.
type scalarFn func(fr []ir.Value) (float64, error)

// kernel returns pl's shard kernel, compiling it on first use. Loop and
// Access must not change after that.
func (pl *ParallelLoop) kernel() *kernel {
	pl.compileOnce.Do(func() { pl.compiled = compileKernel(pl) })
	return pl.compiled
}

type compiler struct {
	pl     *ParallelLoop
	k      *kernel
	slots  map[string]int
	writes map[FieldKey]int
	bufs   map[FieldKey]int
}

func compileKernel(pl *ParallelLoop) *kernel {
	c := &compiler{pl: pl, k: &kernel{}, slots: map[string]int{}, writes: map[FieldKey]int{}, bufs: map[FieldKey]int{}}
	c.k.loopSlot = c.slot(pl.Loop.Var)
	// Overlay entries first, so that loads compiled before the store
	// that writes their field still read through its overlay.
	c.collectWrites(pl.Loop.Stmts)
	c.k.body = c.stmts(pl.Loop.Stmts)
	return c.k
}

func (c *compiler) slot(name string) int {
	s, ok := c.slots[name]
	if !ok {
		s = len(c.k.names)
		c.slots[name] = s
		c.k.names = append(c.k.names, name)
	}
	return s
}

// collectWrites assigns an overlay entry to every field a plain store,
// centered reduction or guarded reduction writes.
func (c *compiler) collectWrites(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Store:
			if info := c.pl.Access[s]; info != nil && !info.Buffered {
				k := FieldKey{st.Region, st.Field}
				if _, ok := c.writes[k]; !ok {
					c.writes[k] = len(c.k.writes)
					c.k.writes = append(c.k.writes, writeSpec{key: k})
				}
			}
		case *ir.Inner:
			c.collectWrites(st.Body)
		case *ir.IfIn:
			c.collectWrites(st.Then)
			c.collectWrites(st.Else)
		case *ir.IfCmp:
			c.collectWrites(st.Then)
			c.collectWrites(st.Else)
		}
	}
}

func (c *compiler) bindAccess(s ir.Stmt, info *AccessInfo, regionName, field string) int {
	w, ok := c.writes[FieldKey{regionName, field}]
	if !ok {
		w = -1
	}
	c.k.binds = append(c.k.binds, bindSpec{kind: bindAccess, stmt: s, info: info, region: regionName, field: field, write: w})
	return len(c.k.binds) - 1
}

func (c *compiler) bindName(kind bindKind, s ir.Stmt, name string) int {
	c.k.binds = append(c.k.binds, bindSpec{kind: kind, stmt: s, name: name})
	return len(c.k.binds) - 1
}

func (c *compiler) stmts(stmts []ir.Stmt) []kop {
	ops := make([]kop, len(stmts))
	for i, s := range stmts {
		ops[i] = c.stmt(s)
	}
	return ops
}

func (c *compiler) stmt(s ir.Stmt) kop {
	op := kop{stmt: s}
	switch st := s.(type) {
	case *ir.Load:
		info := c.pl.Access[s]
		if info == nil {
			return failOp(s, fmt.Errorf("%s: no access plan", st))
		}
		op.kind, op.dst, op.src = opLoad, c.slot(st.Var), c.slot(st.Idx)
		op.bind = c.bindAccess(s, info, st.Region, st.Field)

	case *ir.Store:
		info := c.pl.Access[s]
		if info == nil {
			return failOp(s, fmt.Errorf("%s: no access plan", st))
		}
		op.src, op.op, op.rhs = c.slot(st.Idx), string(st.Op), c.scalar(st.Rhs)
		op.bind = c.bindAccess(s, info, st.Region, st.Field)
		switch {
		case info.Guarded:
			op.kind = opStoreGuarded
		case info.Buffered:
			op.kind = opStoreBuffered
			k := FieldKey{st.Region, st.Field}
			b, ok := c.bufs[k]
			if !ok {
				b = len(c.k.reduces)
				c.bufs[k] = b
				c.k.reduces = append(c.k.reduces, k)
			}
			op.buf = b
		default:
			op.kind = opStore
		}
		if w := c.k.binds[op.bind].write; w >= 0 {
			c.k.writes[w].stores = append(c.k.writes[w].stores, op.bind)
		}

	case *ir.LetScalar:
		op.kind, op.dst, op.rhs = opLet, c.slot(st.Var), c.scalar(st.Rhs)

	case *ir.Apply:
		op.kind, op.dst, op.src = opApply, c.slot(st.Var), c.slot(st.Arg)
		op.bind = c.bindName(bindFunc, s, st.Func)

	case *ir.Alias:
		op.kind, op.dst, op.src = opAlias, c.slot(st.Var), c.slot(st.Src)

	case *ir.Inner:
		info := c.pl.Access[s]
		if info == nil {
			return failOp(s, fmt.Errorf("%s: no access plan", st))
		}
		op.kind, op.dst, op.src = opInner, c.slot(st.Var), c.slot(st.Idx)
		op.bind = c.bindAccess(s, info, st.RangeRegion, st.RangeField)
		op.then = c.stmts(st.Body)

	case *ir.IfIn:
		op.kind, op.src = opIfIn, c.slot(st.Idx)
		op.bind = c.bindName(bindSpace, s, st.Space)
		op.then, op.els = c.stmts(st.Then), c.stmts(st.Else)

	case *ir.IfCmp:
		op.kind, op.op, op.l, op.r = opIfCmp, st.Op, c.scalar(st.L), c.scalar(st.R)
		op.then, op.els = c.stmts(st.Then), c.stmts(st.Else)

	default:
		return failOp(s, fmt.Errorf("unknown statement %T", s))
	}
	return op
}

func failOp(s ir.Stmt, err error) kop { return kop{kind: opFail, stmt: s, err: err} }

// scalar compiles a scalar expression. Opaque function names are hashed
// here, once, rather than on every call.
func (c *compiler) scalar(e ir.ScalarExpr) scalarFn {
	switch x := e.(type) {
	case ir.Const:
		v := x.V
		return func([]ir.Value) (float64, error) { return v, nil }
	case ir.VarExpr:
		s, name := c.slot(x.Name), x.Name
		return func(fr []ir.Value) (float64, error) {
			v := fr[s]
			if unbound(v) {
				return 0, fmt.Errorf("unbound variable %q", name)
			}
			return v.AsScalar(), nil
		}
	case ir.CallExpr:
		seed := ir.OpaqueSeed(x.Func)
		args := make([]scalarFn, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.scalar(a)
		}
		return func(fr []ir.Value) (float64, error) {
			acc := seed
			for i, a := range args {
				v, err := a(fr)
				if err != nil {
					return 0, err
				}
				acc = ir.OpaqueMix(acc, i, v)
			}
			return ir.OpaqueResult(acc), nil
		}
	case ir.BinExpr:
		l, r := c.scalar(x.L), c.scalar(x.R)
		var f func(a, b float64) float64
		switch x.Op {
		case "+":
			f = func(a, b float64) float64 { return a + b }
		case "-":
			f = func(a, b float64) float64 { return a - b }
		case "*":
			f = func(a, b float64) float64 { return a * b }
		case "/":
			f = func(a, b float64) float64 {
				if b == 0 {
					return 0
				}
				return a / b
			}
		}
		op := x.Op
		return func(fr []ir.Value) (float64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			if err != nil {
				return 0, err
			}
			if f == nil {
				return 0, fmt.Errorf("unknown operator %q", op)
			}
			return f(a, b), nil
		}
	default:
		err := fmt.Errorf("unknown scalar expression %T", e)
		return func([]ir.Value) (float64, error) { return 0, err }
	}
}

// unbound reports whether a frame slot holds no value: every value a
// statement binds is either Valid or an (invalid) index, so the zero
// Value never stands for a bound variable.
func unbound(v ir.Value) bool { return !v.Valid && !v.IsIndex }

// binding is one binding-table entry as resolved for one shard.
type binding struct {
	// Access: the color's subregion of the access partition (bound
	// reports whether the partition symbol is), the field's kind and
	// data, and the field's overlay. err is set when the field cannot
	// be resolved on the machine.
	bound  bool
	sub    []geometry.Interval
	kind   region.FieldKind
	f64    []float64
	i64    []int64
	ranges []geometry.Interval
	ov     *Overlay
	err    error
	// Func: the index function, nil when undeclared.
	fn geometry.IndexMap
	// Space: a region's size, or a partition's union (in sub).
	space spaceKind
	size  int64
}

type spaceKind uint8

const (
	spaceUnknown spaceKind = iota
	spaceRegion
	spacePartition
)

// shard is one RunShard's execution state over a kernel.
type shard struct {
	k      *kernel
	color  int
	frame  []ir.Value
	binds  []binding
	writes []*Overlay
	bufs   []*ReduceBuffer
}

// bind resolves the kernel's binding table against a machine, a
// partition environment and a color, and allocates the color's write
// overlays. Nothing is looked up by name after this.
func (k *kernel) bind(m *ir.Machine, parts map[string]*region.Partition, color int) *shard {
	s := &shard{
		k:      k,
		color:  color,
		frame:  make([]ir.Value, len(k.names)),
		binds:  make([]binding, len(k.binds)),
		writes: make([]*Overlay, len(k.writes)),
		bufs:   make([]*ReduceBuffer, len(k.reduces)),
	}
	for i := range k.binds {
		spec, b := &k.binds[i], &s.binds[i]
		switch spec.kind {
		case bindAccess:
			if p, ok := parts[spec.info.Sym]; ok {
				b.bound, b.sub = true, p.Sub(color).Intervals()
			}
			r := m.Regions[spec.region]
			if r == nil {
				b.err = fmt.Errorf("%s: unknown region %q", spec.stmt, spec.region)
				continue
			}
			kind, ok := r.FieldKindOf(spec.field)
			if !ok {
				b.err = fmt.Errorf("%s: region %s has no field %q", spec.stmt, spec.region, spec.field)
				continue
			}
			b.kind = kind
			switch kind {
			case region.ScalarField:
				b.f64 = r.Scalar(spec.field)
			case region.IndexField:
				b.i64 = r.Index(spec.field)
			case region.RangeField:
				b.ranges = r.Ranges(spec.field)
			}
		case bindFunc:
			b.fn = m.Funcs[spec.name]
		case bindSpace:
			if r, ok := m.Regions[spec.name]; ok {
				b.space, b.size = spaceRegion, r.Size()
			} else if p, ok := m.Partitions[spec.name]; ok {
				b.space, b.sub = spacePartition, p.UnionAll().Intervals()
			}
		}
	}
	for w, ws := range k.writes {
		s.writes[w] = s.newOverlay(ws)
	}
	for i, spec := range k.binds {
		if spec.kind == bindAccess && spec.write >= 0 {
			s.binds[i].ov = s.writes[spec.write]
		}
	}
	return s
}

// newOverlay allocates the overlay of one written field over the hull of
// the color's subregions of every partition a store writes it through.
// Every overlay write is containment-checked against one of those
// subregions first, so it always lands inside the window.
func (s *shard) newOverlay(ws writeSpec) *Overlay {
	lo, hi := int64(0), int64(0)
	var kind region.FieldKind
	for _, bi := range ws.stores {
		b := &s.binds[bi]
		kind = b.kind
		if !b.bound || len(b.sub) == 0 {
			continue
		}
		l, h := b.sub[0].Lo, b.sub[len(b.sub)-1].Hi
		if lo == hi {
			lo, hi = l, h
			continue
		}
		lo, hi = min(lo, l), max(hi, h)
	}
	n := hi - lo
	ov := &Overlay{Key: ws.key, lo: lo, set: make([]uint64, (n+63)/64)}
	if kind == region.IndexField {
		ov.indexes = make([]int64, n)
	} else {
		ov.scalars = make([]float64, n)
	}
	return ov
}

// contains reports whether k lies in ivs, a sorted list of disjoint
// intervals.
func contains(ivs []geometry.Interval, k int64) bool {
	lo, hi := 0, len(ivs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ivs[m].Hi <= k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(ivs) && ivs[lo].Lo <= k
}

// badIndex is the error of an access whose index slot does not hold a
// valid index.
func (s *shard) badIndex(op *kop, slot int) error {
	v, name := s.frame[slot], s.k.names[slot]
	var err error
	switch {
	case unbound(v):
		err = fmt.Errorf("unbound variable %q", name)
	case !v.IsIndex:
		err = fmt.Errorf("variable %q is not an index", name)
	default:
		err = fmt.Errorf("variable %q holds an invalid index", name)
	}
	return fmt.Errorf("%s: %w", op.stmt, err)
}

// validIndex reports whether v can index an access.
func validIndex(v ir.Value) bool { return v.IsIndex && v.Valid }

// escapes is the error of an access that fails the containment check
// against the task's subregion of the access partition.
func (s *shard) escapes(op *kop, b *binding, idx int64) error {
	info := s.k.binds[op.bind].info
	if !b.bound {
		return fmt.Errorf("unbound partition %q", info.Sym)
	}
	return fmt.Errorf("access %s[%d].%s escapes subregion %s[%d] — unsound partitioning",
		info.Region, idx, info.Field, info.Sym, s.color)
}

// readScalar reads a scalar field element: the task's own write if it
// made one, else the launch snapshot.
func (b *binding) readScalar(idx int64) float64 {
	if ov := b.ov; ov != nil {
		if off := idx - ov.lo; uint64(off) < uint64(len(ov.scalars)) && ov.set[off>>6]&(1<<(off&63)) != 0 {
			return ov.scalars[off]
		}
	}
	return b.f64[idx]
}

func (b *binding) readIndex(idx int64) int64 {
	if ov := b.ov; ov != nil {
		if off := idx - ov.lo; uint64(off) < uint64(len(ov.indexes)) && ov.set[off>>6]&(1<<(off&63)) != 0 {
			return ov.indexes[off]
		}
	}
	return b.i64[idx]
}

// run executes compiled statements against the frame.
func (s *shard) run(ops []kop) error {
	fr := s.frame
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opLoad:
			if !validIndex(fr[op.src]) {
				return s.badIndex(op, op.src)
			}
			idx, b := fr[op.src].I, &s.binds[op.bind]
			if !b.bound || !contains(b.sub, idx) {
				return s.escapes(op, b, idx)
			}
			if b.err != nil {
				return b.err
			}
			switch b.kind {
			case region.ScalarField:
				fr[op.dst] = ir.ScalarValue(b.readScalar(idx))
			case region.IndexField:
				if v := b.readIndex(idx); v < 0 {
					fr[op.dst] = ir.InvalidIndex()
				} else {
					fr[op.dst] = ir.IndexValue(v)
				}
			default:
				return fmt.Errorf("%s: cannot load range field", op.stmt)
			}

		case opStore, opStoreGuarded, opStoreBuffered:
			if err := s.store(op); err != nil {
				return err
			}

		case opLet:
			v, err := op.rhs(fr)
			if err != nil {
				return fmt.Errorf("%s: %w", op.stmt, err)
			}
			fr[op.dst] = ir.ScalarValue(v)

		case opApply:
			f := s.binds[op.bind].fn
			if f == nil {
				return fmt.Errorf("%s: unknown index function", op.stmt)
			}
			if !validIndex(fr[op.src]) {
				return s.badIndex(op, op.src)
			}
			if v, ok := f.Apply(fr[op.src].I); ok {
				fr[op.dst] = ir.IndexValue(v)
			} else {
				fr[op.dst] = ir.InvalidIndex()
			}

		case opAlias:
			v := fr[op.src]
			if unbound(v) {
				return fmt.Errorf("%s: unbound source", op.stmt)
			}
			fr[op.dst] = v

		case opInner:
			if !validIndex(fr[op.src]) {
				return s.badIndex(op, op.src)
			}
			idx, b := fr[op.src].I, &s.binds[op.bind]
			if !b.bound || !contains(b.sub, idx) {
				return s.escapes(op, b, idx)
			}
			if b.err != nil {
				return b.err
			}
			if b.kind != region.RangeField {
				return fmt.Errorf("%s: not a range field", op.stmt)
			}
			iv := b.ranges[idx]
			for j := iv.Lo; j < iv.Hi; j++ {
				fr[op.dst] = ir.IndexValue(j)
				if err := s.run(op.then); err != nil {
					return err
				}
			}

		case opIfIn:
			v := fr[op.src]
			if unbound(v) {
				return fmt.Errorf("%s: unbound index", op.stmt)
			}
			in := false
			if v.Valid {
				b := &s.binds[op.bind]
				switch b.space {
				case spaceRegion:
					in = v.I >= 0 && v.I < b.size
				case spacePartition:
					in = contains(b.sub, v.I)
				default:
					return fmt.Errorf("%s: unknown space", op.stmt)
				}
			}
			branch := op.els
			if in {
				branch = op.then
			}
			if err := s.run(branch); err != nil {
				return err
			}

		case opIfCmp:
			l, err := op.l(fr)
			if err != nil {
				return err
			}
			r, err := op.r(fr)
			if err != nil {
				return err
			}
			var cond bool
			switch op.op {
			case "==":
				cond = l == r
			case "!=":
				cond = l != r
			default:
				return fmt.Errorf("%s: unknown comparison", op.stmt)
			}
			branch := op.els
			if cond {
				branch = op.then
			}
			if err := s.run(branch); err != nil {
				return err
			}

		case opFail:
			return op.err
		}
	}
	return nil
}

// store executes the three store forms: a §5.1 guarded reduction into
// the overlay, applied only where this task owns the target (the
// disjoint complete target partition makes it exactly-once across the
// launch); an uncentered reduction into the task's buffer; and a plain
// store or centered reduction, a task-private read-modify-write in the
// overlay. Pointer fields take the raw value.
func (s *shard) store(op *kop) error {
	fr := s.frame
	if !validIndex(fr[op.src]) {
		return s.badIndex(op, op.src)
	}
	idx := fr[op.src].I
	rhs, err := op.rhs(fr)
	if err != nil {
		return fmt.Errorf("%s: %w", op.stmt, err)
	}
	b := &s.binds[op.bind]

	if op.kind == opStoreGuarded {
		if !b.bound {
			return fmt.Errorf("%s: unbound partition %q", op.stmt, s.k.binds[op.bind].info.Sym)
		}
		if !contains(b.sub, idx) {
			return nil
		}
		if b.err != nil {
			return b.err
		}
		if b.kind != region.ScalarField {
			return fmt.Errorf("%s: guarded reduction into a non-scalar field", op.stmt)
		}
		b.ov.setScalar(idx, ir.ApplyReduce(op.op, b.readScalar(idx), rhs))
		return nil
	}

	if !b.bound || !contains(b.sub, idx) {
		return s.escapes(op, b, idx)
	}

	if op.kind == opStoreBuffered {
		buf := s.bufs[op.buf]
		if buf == nil {
			buf = &ReduceBuffer{Op: op.op, Values: map[int64]float64{}}
			s.bufs[op.buf] = buf
		}
		old, seen := buf.Values[idx]
		if !seen {
			old = ir.ReduceIdentity(op.op)
		}
		buf.Values[idx] = ir.ApplyReduce(op.op, old, rhs)
		return nil
	}

	if b.err != nil {
		return b.err
	}
	switch b.kind {
	case region.IndexField:
		b.ov.setIndex(idx, int64(rhs))
	case region.ScalarField:
		b.ov.setScalar(idx, ir.ApplyReduce(op.op, b.readScalar(idx), rhs))
	default:
		return fmt.Errorf("%s: cannot store to range field", op.stmt)
	}
	return nil
}

// result packages the shard's private writes and reduction buffers.
func (s *shard) result() *ShardResult {
	res := &ShardResult{Writes: s.writes, Reductions: map[FieldKey]*ReduceBuffer{}}
	for i, buf := range s.bufs {
		if buf != nil {
			res.Reductions[s.k.reduces[i]] = buf
		}
	}
	return res
}

// Overlay is one task's private writes to one field: values over the
// window [lo, lo+n), the hull of the color's subregions the field is
// written through, plus a bitmap of the elements actually written.
// Exactly one of scalars and indexes is non-nil, by the field's kind.
type Overlay struct {
	Key     FieldKey
	lo      int64
	set     []uint64
	scalars []float64
	indexes []int64
}

func (o *Overlay) mark(off int64) { o.set[off>>6] |= 1 << (off & 63) }

func (o *Overlay) setScalar(idx int64, v float64) {
	off := idx - o.lo
	o.scalars[off] = v
	o.mark(off)
}

func (o *Overlay) setIndex(idx int64, v int64) {
	off := idx - o.lo
	o.indexes[off] = v
	o.mark(off)
}

// written reports whether the task wrote any element of the field.
func (o *Overlay) written() bool {
	for _, w := range o.set {
		if w != 0 {
			return true
		}
	}
	return false
}

// each calls fn with the window offset of every written element, in
// ascending order.
func (o *Overlay) each(fn func(off int64)) {
	for w, word := range o.set {
		for word != 0 {
			fn(int64(w)<<6 | int64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}
