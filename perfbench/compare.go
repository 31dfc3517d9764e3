package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareFiles compares two results files workload by workload and
// reports whether anything regressed: a deterministic counter that
// differs, or an end-to-end median worse by more than its bound.
// Medians whose run-to-run spread exceeds the bound are "unresolved"
// unless every new run beats every old one.
func compareFiles(benchJSON, oldPath, newPath string, w io.Writer) (bool, error) {
	bounds, err := readBounds(benchJSON)
	if err != nil {
		return false, err
	}
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	return compareRecords(bounds, oldRecs, newRecs, w), nil
}

func readBounds(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// metricVerdict compares one metric's old and new run values.
func metricVerdict(d metricDef, old, cur []float64) (verdict string, change float64) {
	so, sn := summarize(old), summarize(cur)
	if so.Median != 0 {
		change = (sn.Median - so.Median) / so.Median
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	if spread(so) > d.Bound || spread(sn) > d.Bound {
		if allBetter(d, old, cur) {
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case worse > d.Bound:
		return "worse", change
	case worse < -d.Bound:
		return "better", change
	}
	return "ok", change
}

// allBetter reports whether every new value beats every old one.
func allBetter(d metricDef, old, cur []float64) bool {
	so, sn := sortedCopy(old), sortedCopy(cur)
	if d.Better == "higher" {
		return sn[0] > so[len(so)-1]
	}
	return sn[len(sn)-1] < so[0]
}

func compareRecords(bounds []metricDef, oldRecs, newRecs []*record, w io.Writer) bool {
	byWorkload := func(recs []*record) map[string][]*record {
		out := map[string][]*record{}
		for _, r := range recs {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return out
	}
	oldBy, newBy := byWorkload(oldRecs), byWorkload(newRecs)
	regressed := false
	fmt.Fprintf(w, "%-14s %-17s %s\n", "workload", "verdict", "detail")
	for _, wl := range sortedKeys(oldBy) {
		cur, ok := newBy[wl]
		if !ok {
			fmt.Fprintf(w, "%-14s %-17s %s\n", wl, "missing", "no runs in the new file")
			continue
		}
		mismatches := counterMismatches(oldBy[wl], cur)
		var parts []string
		rank := map[string]int{"ok": 0, "better": 0, "unresolved": 1, "worse": 2}
		worst := "ok"
		for _, d := range bounds {
			ov, nv := e2eValues(oldBy[wl], d.Name), e2eValues(cur, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v, change := metricVerdict(d, ov, nv)
			if rank[v] > rank[worst] {
				worst = v
			}
			parts = append(parts, fmt.Sprintf("%s %s %+.1f%% (%.4g→%.4g, n=%d/%d, bound %.0f%%)",
				d.Name, v, 100*change, summarize(ov).Median, summarize(nv).Median, len(ov), len(nv), 100*d.Bound))
		}
		if len(mismatches) > 0 {
			worst = "counter-mismatch"
			parts = append(parts, fmt.Sprintf("%d counters differ, first: %s", len(mismatches), mismatches[0]))
		}
		if worst == "worse" || worst == "counter-mismatch" {
			regressed = true
		}
		fmt.Fprintf(w, "%-14s %-17s %s\n", wl, worst, strings.Join(parts, "; "))
	}
	return regressed
}

// e2eValues are the untraced runs' values of one end-to-end metric.
func e2eValues(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.EndToEnd[name]; ok && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// counterMismatches lists every counter key whose values differ across
// the runs of both files that recorded it.
func counterMismatches(oldRecs, newRecs []*record) []string {
	values := map[string]map[string]bool{}
	for _, r := range append(append([]*record(nil), oldRecs...), newRecs...) {
		for k, v := range r.Counters {
			if values[k] == nil {
				values[k] = map[string]bool{}
			}
			values[k][v] = true
		}
	}
	var out []string
	for _, k := range sortedKeys(values) {
		if len(values[k]) > 1 {
			vs := sortedKeys(values[k])
			out = append(out, fmt.Sprintf("%s: %s", k, strings.Join(vs, " | ")))
		}
	}
	sort.Strings(out)
	return out
}
