package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"autopart/internal/dpl"
	"autopart/internal/lang"
	"autopart/internal/pipeline"
	"autopart/pkg/autopart"
)

const (
	serviceClients = 2
	// editableLoops bounds the loops of one program that edits touch. A
	// version is the set of loops currently edited, so each program has
	// at most 2^editableLoops versions: the program never grows, and
	// checking every distinct version against a cold compile stays cheap.
	editableLoops = 6
	// resubmitPct is the share of operations that resubmit a version the
	// key has compiled before instead of editing one loop.
	resubmitPct = 25
	// replayOps is how many of client 0's operations are replayed on a
	// fresh service to record deterministic clean/dirty loop counts.
	replayOps = 48
	// serviceWindow is the length of one metric window.
	serviceWindow = time.Second
)

// loopEdit is one editable loop: its byte range in the base source and
// its edited text (one statement line duplicated, which keeps the
// program valid and changes the loop's fingerprint).
type loopEdit struct {
	start, end int
	edited     string
}

// editProgram is one program of the service-edits mix and its edits.
type editProgram struct {
	name, class string
	base        string
	edits       []loopEdit
	// weight is the program's share of requests. The three slowest
	// programs get double weight, so that sorted by latency the median
	// falls inside the long synthetic program's band and the p90 inside
	// MiniAero's, never on the gap between two programs.
	weight int
}

// text renders the version whose edited loops are the set bits of mask.
func (p *editProgram) text(mask uint) string {
	var b strings.Builder
	at := 0
	for i, e := range p.edits {
		if mask&(1<<i) == 0 {
			continue
		}
		b.WriteString(p.base[at:e.start])
		b.WriteString(e.edited)
		at = e.end
	}
	b.WriteString(p.base[at:])
	return b.String()
}

// newEditProgram picks up to editableLoops loops of src, each with one
// plain statement line to duplicate.
func newEditProgram(name, class, src string, weight int, rng *rand.Rand) (*editProgram, error) {
	seg, err := lang.SplitSource(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &editProgram{name: name, class: class, base: src, weight: weight}
	for _, li := range rng.Perm(len(seg.Loops)) {
		if len(p.edits) == editableLoops {
			break
		}
		s := seg.LoopSeg(li)
		loop := src[s.Start:s.End]
		var plain []string
		for _, line := range strings.SplitAfter(loop, "\n") {
			t := strings.TrimSpace(line)
			if t == "" || !strings.HasSuffix(line, "\n") || strings.ContainsAny(t, "{}") || strings.HasPrefix(t, "//") {
				continue
			}
			plain = append(plain, line)
		}
		if len(plain) == 0 {
			continue
		}
		line := plain[rng.Intn(len(plain))]
		p.edits = append(p.edits, loopEdit{start: s.Start, end: s.End, edited: strings.Replace(loop, line, line+line, 1)})
	}
	if len(p.edits) == 0 {
		return nil, fmt.Errorf("%s: no editable loop", name)
	}
	// text walks the edits in source order.
	for i := 1; i < len(p.edits); i++ {
		for j := i; j > 0 && p.edits[j].start < p.edits[j-1].start; j-- {
			p.edits[j], p.edits[j-1] = p.edits[j-1], p.edits[j]
		}
	}
	return p, nil
}

// editOp is one client request: compile program prog at version mask
// under the client's key for that program.
type editOp struct {
	prog int
	mask uint
}

// editClient generates one client's request sequence.
type editClient struct {
	id    int
	rng   *rand.Rand
	progs []*editProgram
	cur   []uint
	seen  [][]uint
}

func newEditClient(id int, seed int64, progs []*editProgram) *editClient {
	c := &editClient{id: id, rng: rand.New(rand.NewSource(seed)), progs: progs,
		cur: make([]uint, len(progs)), seen: make([][]uint, len(progs))}
	for i := range progs {
		c.seen[i] = []uint{0}
	}
	return c
}

// next is a single-loop edit of a program's current version, or, for
// resubmitPct of requests, a resubmit of a version the key saw before.
func (c *editClient) next() editOp {
	total := 0
	for _, p := range c.progs {
		total += p.weight
	}
	p, r := 0, c.rng.Intn(total)
	for ; r >= c.progs[p].weight; p++ {
		r -= c.progs[p].weight
	}
	if c.rng.Intn(100) < resubmitPct {
		m := c.seen[p][c.rng.Intn(len(c.seen[p]))]
		c.cur[p] = m
		return editOp{prog: p, mask: m}
	}
	m := c.cur[p] ^ (1 << c.rng.Intn(len(c.progs[p].edits)))
	c.cur[p] = m
	known := false
	for _, s := range c.seen[p] {
		known = known || s == m
	}
	if !known {
		c.seen[p] = append(c.seen[p], m)
	}
	return editOp{prog: p, mask: m}
}

func (c *editClient) key(p int) string { return fmt.Sprintf("client%d/%s", c.id, c.progs[p].name) }

// editPrograms generates the service-edits programs for a seed: the
// five builtins and two synthetic programs, one short and one long.
func editPrograms(rng *rand.Rand) ([]*editProgram, error) {
	var out []*editProgram
	for _, b := range builtinSources {
		weight := 1
		if b.name == "miniaero" || b.name == "pennant" {
			weight = 2
		}
		p, err := newEditProgram(b.name, "builtin", b.src, weight, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	// The synthetic sizes are fixed: the median falls in the long
	// program's band, so a seeded size would move it from seed to seed.
	for i, n := range []int{12, 40} {
		p, err := newEditProgram(fmt.Sprintf("synth%d", n), "synth", synthLoops(n), 1+i, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// serviceOp is one timed recompile and its condensed output.
type serviceOp struct {
	editOp
	out outcome
}

// serviceEdits is the service-edits workload: a warm autopart.Service
// with cmd/apcd's default options and serviceClients closed-loop
// clients, each sending single-loop edits and resubmits of its own
// programs through CompileIncremental.
type serviceEdits struct {
	seed    int64
	progs   []*editProgram
	clients []*editClient
	sv      *autopart.Service
	ops     []serviceOp
}

func newServiceEdits(seed int64) *serviceEdits { return &serviceEdits{seed: seed} }

func (w *serviceEdits) setup(tr *tracer) error {
	rng := rand.New(rand.NewSource(w.seed))
	progs, err := editPrograms(rng)
	if err != nil {
		return err
	}
	w.progs = progs
	w.clients = nil
	for c := 0; c < serviceClients; c++ {
		w.clients = append(w.clients, newEditClient(c, rng.Int63(), progs))
	}
	// A fresh service over an empty intern table, so the traced phase
	// starts from the same state as the untraced one.
	dpl.Default().Reset()
	// cmd/apcd's defaults: every ServiceOptions field at its zero value.
	w.sv = autopart.NewService(autopart.ServiceOptions{})
	// Warm up: each key compiles its base version once.
	for _, c := range w.clients {
		for p := range progs {
			if _, err := w.sv.CompileIncremental(c.key(p), progs[p].base); err != nil {
				return fmt.Errorf("warm-up %s: %w", c.key(p), err)
			}
		}
	}
	return nil
}

func (w *serviceEdits) measure(d time.Duration, tr *tracer) (*phaseResult, error) {
	stats := newCompileStats()
	if tr != nil {
		stats.startIntern()
	}
	before := w.sv.Stats()
	a0, opsBefore := heapAllocs(), len(w.ops)
	var mu sync.Mutex
	// windows[k] holds the latencies of requests that completed in the
	// k-th serviceWindow of the phase.
	var windows [][]float64
	breakdown := map[string][]float64{}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *editClient) {
			defer wg.Done()
			var myLat [][]float64
			var myOps []serviceOp
			myBreak := map[string][]float64{}
			for time.Now().Before(deadline) {
				op := c.next()
				prog := w.progs[op.prog]
				src := prog.text(op.mask)
				var c2 *autopart.Compiled
				var err error
				var el time.Duration
				if tr == nil {
					t0 := time.Now()
					c2, err = w.sv.CompileIncremental(c.key(op.prog), src)
					el = time.Since(t0)
				} else {
					id, top := tr.id(), tr.id()
					obs := newPassObserver(tr, top, id, c.id+1)
					s0 := tr.now()
					t0 := time.Now()
					c2, err = w.sv.CompileIncrementalWith(c.key(op.prog), src, autopart.Options{Observers: []pipeline.Observer{obs}})
					el = time.Since(t0)
					tr.record(span{ID: id, Op: top, Name: "recompile", TID: c.id + 1, Start: s0, End: tr.now()})
					mu.Lock()
					stats.add(prog.name, prog.class, obs, c2, 0)
					mu.Unlock()
				}
				k := int(time.Since(start) / serviceWindow)
				for len(myLat) <= k {
					myLat = append(myLat, nil)
				}
				myLat[k] = append(myLat[k], ms(el))
				myBreak[prog.name] = append(myBreak[prog.name], ms(el))
				myOps = append(myOps, serviceOp{editOp: op, out: outcomeOf(c2, err)})
			}
			mu.Lock()
			for k, xs := range myLat {
				for len(windows) <= k {
					windows = append(windows, nil)
				}
				windows[k] = append(windows[k], xs...)
			}
			w.ops = append(w.ops, myOps...)
			for k, xs := range myBreak {
				breakdown[k] = append(breakdown[k], xs...)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p := newPhaseResult()
	// The last window closes when the deadline passes; requests in
	// flight then finish after it and form a short extra window.
	if n := int(d / serviceWindow); len(windows) > n && n > 0 {
		windows = windows[:n]
	}
	p.setLatency(windows, 90, serviceClients)
	p.breakdown = breakdown
	if tr != nil {
		// Allocation per recompile over the whole phase: with two clients
		// a per-call delta would count the other client's allocations.
		// It includes each client rendering its result for the check.
		stats.allocBytes, stats.allocOps = float64(heapAllocs()-a0), float64(len(w.ops)-opsBefore)
		stats.layers(p.layers)
		after := w.sv.Stats()
		p.layers["service.memo_hit_rate"] = hitRate(float64(after.Memo.Hits-before.Memo.Hits), float64(after.Memo.Misses-before.Memo.Misses))
		clean := float64(after.IncrementalCleanLoops - before.IncrementalCleanLoops)
		dirty := float64(after.IncrementalDirtyLoops - before.IncrementalDirtyLoops)
		p.layers["service.clean_loop_ratio"] = hitRate(clean, dirty)
		p.layers["service.cold_fallbacks"] = float64(after.IncrementalCold - before.IncrementalCold)
		p.layers["service.intern_entries"] = float64(after.InternEntries)
		p.layers["service.intern_reclaims"] = float64(after.InternReclaims - before.InternReclaims)
	}
	return p, nil
}

func (w *serviceEdits) gomaxprocs1(d time.Duration, tr *tracer) (map[string]float64, error) {
	p, err := w.measure(d, tr)
	if err != nil {
		return nil, err
	}
	return p.layers, nil
}

// finish compiles every distinct version cold with autopart.Compile and
// requires each incremental result to be byte-identical to it, then
// replays client 0's first requests on a fresh service to record the
// clean and dirty loop counts of each.
func (w *serviceEdits) finish(rec *record) (attempted, failed int) {
	type version struct {
		prog int
		mask uint
	}
	cold := map[version]outcome{}
	for _, op := range w.ops {
		v := version{op.prog, op.mask}
		if _, ok := cold[v]; !ok {
			c, err := autopart.Compile(w.progs[op.prog].text(op.mask), autopart.Options{})
			cold[v] = outcomeOf(c, err)
			rec.Counters[fmt.Sprintf("service-edits/seed%d/%s/v%x", w.seed, w.progs[op.prog].name, op.mask)] = cold[v].String()
		}
	}
	for _, op := range w.ops {
		attempted++
		want := cold[version{op.prog, op.mask}]
		if op.out != want || want.Verdict != "ok" {
			failed++
			rec.fail(fmt.Sprintf("%s version %x: incremental %s, cold %s", w.progs[op.prog].name, op.mask, op.out, want))
		}
	}

	rng := rand.New(rand.NewSource(w.seed))
	progs, err := editPrograms(rng)
	if err != nil {
		rec.fail("replay: " + err.Error())
		return attempted, failed + 1
	}
	client := newEditClient(0, rng.Int63(), progs)
	sv := autopart.NewService(autopart.ServiceOptions{})
	for p := range progs {
		if _, err := sv.CompileIncremental(client.key(p), progs[p].base); err != nil {
			rec.fail("replay warm-up: " + err.Error())
			return attempted, failed + 1
		}
	}
	for i := 0; i < replayOps; i++ {
		op := client.next()
		obs := newPassObserver(nil, 0, 0, 0)
		if _, err := sv.CompileIncrementalWith(client.key(op.prog), progs[op.prog].text(op.mask), autopart.Options{Observers: []pipeline.Observer{obs}}); err != nil {
			rec.fail("replay: " + err.Error())
			return attempted, failed + 1
		}
		rec.Counters[fmt.Sprintf("service-edits/seed%d/replay/op%02d", w.seed, i)] = fmt.Sprintf("%s v%x clean=%d dirty=%d cold=%d",
			progs[op.prog].name, op.mask, obs.metrics["incr_clean_loops"], obs.metrics["incr_dirty_loops"], obs.metrics["incr_cold"])
	}
	return attempted, failed
}
