package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autopart/internal/exec"
	"autopart/internal/pipeline"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. All spans of one operation share Op;
// Parent is 0 for an operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	// TID is the client goroutine for compile spans and the executor
	// node for launch spans, so Chrome's viewer lays them out in rows.
	TID   int   `json:"tid"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Reconstructed marks spans whose start is derived rather than
	// observed: launch and compute spans are laid out from the
	// durations exec.NodeTiming returns, which carry no timestamps.
	Reconstructed bool `json:"reconstructed,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span or operation id, so children can name a parent
// whose span is recorded after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// now is the time since the tracer started, in nanoseconds.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times fn as a span named name under parent; it returns fn's
// duration whether or not the tracer is on.
func (t *tracer) call(name string, op, parent int64, tid int, fn func()) time.Duration {
	id, start := t.id(), t.now()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.record(span{ID: id, Parent: parent, Op: op, Name: name, TID: tid, Start: start, End: t.now()})
	return d
}

// passObserver turns the pipeline's pass events into child spans of one
// compile span and keeps each pass's wall time.
type passObserver struct {
	tr         *tracer
	op, parent int64
	tid        int
	start      int64
	walls      map[string]time.Duration
	// metrics is the session's artifact snapshot after the last pass
	// (loop counts, incremental clean/dirty loops, ...).
	metrics map[string]int
}

func newPassObserver(tr *tracer, op, parent int64, tid int) *passObserver {
	return &passObserver{tr: tr, op: op, parent: parent, tid: tid, walls: map[string]time.Duration{}}
}

func (p *passObserver) OnPassStart(string, int) { p.start = p.tr.now() }

func (p *passObserver) OnPassEnd(ev pipeline.PassEvent) {
	p.walls[ev.Pass] = ev.Wall
	p.metrics = ev.Metrics
	p.tr.record(span{ID: p.tr.id(), Parent: p.parent, Op: p.op, Name: "pass." + ev.Pass, TID: p.tid, Start: p.start, End: p.tr.now()})
}

// launchSpans adds one span per node, step and launch under a run span,
// each with a compute child. NodeTiming holds durations only, so a
// node's launches are laid end to end from the run's start, and the
// compute window is placed at the end of its launch: a launch computes
// once its last ghost dependency has arrived.
func (t *tracer) launchSpans(res *exec.Result, op, parent, runStart int64) {
	if t == nil {
		return
	}
	nodes := 0
	if len(res.Steps) > 0 && len(res.Steps[0].Launches) > 0 {
		nodes = len(res.Steps[0].Launches[0].Times)
	}
	for node := 0; node < nodes; node++ {
		at := runStart
		for _, st := range res.Steps {
			for _, lc := range st.Launches {
				nt := lc.Times[node]
				id := t.id()
				t.record(span{ID: id, Parent: parent, Op: op, Name: "launch", TID: node + 1, Start: at, End: at + nt.WallNS, Reconstructed: true})
				t.record(span{ID: t.id(), Parent: id, Op: op, Name: "compute", TID: node + 1, Start: at + nt.WallNS - nt.ComputeNS, End: at + nt.WallNS, Reconstructed: true})
				at += nt.WallNS
			}
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its children's intervals cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range sorted {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// writeTraces writes the spans as JSON lines and as a Chrome
// trace-event file (chrome://tracing or Perfetto open it offline) and
// returns the two paths.
func (t *tracer) writeTraces(dir, base string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	jsonlPath := filepath.Join(dir, base+".spans.jsonl")
	if err := writeFile(jsonlPath, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	chromePath := filepath.Join(dir, base+".chrome.json")
	if err := writeFile(chromePath, func(w *bufio.Writer) error {
		if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
			return err
		}
		for i, s := range spans {
			if i > 0 {
				w.WriteByte(',')
			}
			cat, _, _ := strings.Cut(s.Name, ".")
			ev := event{Name: s.Name, Cat: cat, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: 1, TID: s.TID, Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}}
			if s.Reconstructed {
				ev.Args["reconstructed"] = true
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			w.Write(data)
		}
		_, err := w.WriteString("]}\n")
		return err
	}); err != nil {
		return nil, err
	}
	return []string{jsonlPath, chromePath}, nil
}

// writeFile creates path, lets fill write it through a buffer, and
// reports the first error of fill, Flush or Close.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
