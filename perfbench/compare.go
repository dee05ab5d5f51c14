package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads a result set: one record per line, as --record
// writes them.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a perfbench record", path, line)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// judgement is one metric × workload comparison.
type judgement struct {
	parentQ, changeQ [3]float64
	won, pairs       int
	verdict          string
}

// better reports whether a reads better than b.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// judge compares the change's runs with the parent's, paired in order.
// A gain needs the change to win at least nine tenths of the pairs (ties
// count for neither) with medians further apart than the parent's
// quartile distance. With a bound (end-to-end metrics), a median worse
// by more than the bound is a regression, and a spread wider than the
// bound leaves the metric unresolved unless every change run reads
// better than every parent run. Without a bound (per-layer metrics),
// a regression is the mirror of a gain.
func judge(parent, change []float64, dir string, bound float64, hasBound bool) judgement {
	j := judgement{pairs: min(len(parent), len(change))}
	p1, pm, p3 := quartiles(parent)
	c1, cm, c3 := quartiles(change)
	j.parentQ, j.changeQ = [3]float64{p1, pm, p3}, [3]float64{c1, cm, c3}
	lost := 0
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(change[i], parent[i], dir):
			j.won++
		case better(parent[i], change[i], dir):
			lost++
		}
	}
	nine := func(k int) bool { return j.pairs > 0 && 10*k >= 9*j.pairs }
	apart := math.Abs(cm-pm) > p3-p1
	worseBy := relWorse(pm, cm, dir)
	switch {
	case nine(j.won) && apart:
		j.verdict = improved
	case !hasBound:
		j.verdict = unchanged
		if nine(lost) && apart {
			j.verdict = regressed
		}
	case nine(lost) && worseBy > bound:
		j.verdict = regressed
	case spread(p1, pm, p3) > bound || spread(c1, cm, c3) > bound:
		j.verdict = unresolved
		if allBetter(change, parent, dir) {
			j.verdict = unchanged
		}
	case worseBy > bound:
		j.verdict = regressed
	default:
		j.verdict = unchanged
	}
	return j
}

// relWorse is how much worse the change's median is than the parent's,
// as a share of the parent's (negative when better).
func relWorse(pm, cm float64, dir string) float64 {
	d := cm - pm
	if dir == "higher" {
		d = -d
	}
	switch {
	case pm != 0:
		return d / math.Abs(pm)
	case d > 0:
		return math.Inf(1)
	case d < 0:
		return math.Inf(-1)
	}
	return 0
}

// spread is the quartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(change, parent []float64, dir string) bool {
	if len(change) == 0 || len(parent) == 0 {
		return false
	}
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p, dir) {
				return false
			}
		}
	}
	return true
}

// series groups a result set's metric values by workload, trace mode
// and metric, in record order.
func series(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		key := r.Workload
		if r.Trace {
			key += " (trace)"
		}
		if out[key] == nil {
			out[key] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[key][name] = append(out[key][name], m.Value)
		}
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare parent.jsonl change.jsonl (run from the repository root)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	sets := [2]map[string]map[string][]float64{}
	for i, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		sets[i] = series(recs)
	}
	type rule struct {
		dir      string
		bound    float64
		hasBound bool
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound, true}
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better, 0, false}
		order = append(order, m.Name)
	}
	fmt.Fprintf(stdout, "%-22s %-26s %-32s %-32s %8s %6s  %s\n",
		"workload", "metric", "parent q1 / median / q3", "change q1 / median / q3", "Δmedian", "won", "verdict")
	for _, w := range sortedKeys(sets[0]) {
		for _, name := range order {
			p, c := sets[0][w][name], sets[1][w][name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			r := rules[name]
			j := judge(p, c, r.dir, r.bound, r.hasBound)
			delta := "n/a"
			if j.parentQ[1] != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(j.changeQ[1]-j.parentQ[1])/math.Abs(j.parentQ[1]))
			}
			fmt.Fprintf(stdout, "%-22s %-26s %-32s %-32s %8s %6s  %s\n", w, name,
				fmt.Sprintf("%.4g / %.4g / %.4g", j.parentQ[0], j.parentQ[1], j.parentQ[2]),
				fmt.Sprintf("%.4g / %.4g / %.4g", j.changeQ[0], j.changeQ[1], j.changeQ[2]),
				delta, fmt.Sprintf("%d/%d", j.won, j.pairs), j.verdict)
		}
	}
	return 0
}
