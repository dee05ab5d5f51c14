package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"locallab/internal/scenario"
	"locallab/internal/serve"
	"locallab/internal/serve/loadgen"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for i := lo; i <= hi; i++ {
		xs = append(xs, float64(i))
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(1, 100), 90, 90},
		{seq(1, 100), 50, 50},
		{seq(1, 1000), 99, 990},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{3, 1, 2}, 100, 3},
		{[]float64{7}, 99, 7},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v…, %g) = %g, want %g", c.xs[:min(len(c.xs), 3)], c.p, got, c.want)
		}
	}
}

func TestTenBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},
		{99, 90, false},
		{1000, 99, true},
		{999, 99, false},
		{420, 99, false},
		{0, 50, false},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v (beyond = %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

// The spreads the benchmark is judged by use Python's
// statistics.quantiles(xs, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(1, 10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1000}, [3]float64{30, 60, 90}},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		got := [3]float64{q1, m, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestFailAndSLOAccounting(t *testing.T) {
	tl := tally{attempted: 200, errors: 1, rejected: 2, mismatches: 1, overLimit: 6}
	if got := tl.failed(); got != 4 {
		t.Errorf("failed = %d, want 4", got)
	}
	if got := tl.failRatio(); got != 0.02 {
		t.Errorf("failRatio = %g, want 0.02", got)
	}
	// Over the limit, plus rejected and failed, over requests sent.
	if got := tl.sloMissRatio(); got != 0.05 {
		t.Errorf("sloMissRatio = %g, want 0.05", got)
	}
	var empty tally
	if empty.failRatio() != 0 || empty.sloMissRatio() != 0 {
		t.Errorf("empty tally ratios = %g, %g, want 0, 0", empty.failRatio(), empty.sloMissRatio())
	}
}

// around returns ten runs near base, alternating ±jitter·i.
func around(base, jitter float64) []float64 {
	var xs []float64
	for i := 0; i < 10; i++ {
		d := jitter * float64(i%5)
		if i%2 == 1 {
			d = -d
		}
		xs = append(xs, base+d)
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	parent := around(100, 0.5)
	cases := []struct {
		name     string
		change   []float64
		dir      string
		hasBound bool
		want     string
		wantWon  int
	}{
		{"faster by far", around(80, 0.5), "lower", true, improved, 10},
		{"slower beyond bound", around(130, 0.5), "lower", true, regressed, 0},
		{"slower within bound", around(110, 0.5), "lower", true, unchanged, 0},
		{"same", around(100, 0.5), "lower", true, unchanged, 0},
		{"throughput up", around(130, 0.5), "higher", true, improved, 10},
		{"throughput down", around(70, 0.5), "higher", true, regressed, 0},
		{"spread wider than bound", around(100, 40), "lower", true, unresolved, 0},
		{"per-layer slower", around(103, 0.5), "lower", false, regressed, 0},
		{"per-layer same", around(100, 0.5), "lower", false, unchanged, 0},
	}
	for _, c := range cases {
		j := judge(parent, c.change, c.dir, 0.25, c.hasBound)
		if j.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (parent %v change %v)", c.name, j.verdict, c.want, j.parentQ, j.changeQ)
		}
		if c.want != unresolved && c.want != unchanged && j.won != c.wantWon {
			t.Errorf("%s: won %d/%d pairs, want %d", c.name, j.won, j.pairs, c.wantWon)
		}
	}
	// Eight of ten pairs won is not a gain, however far apart.
	change := around(80, 0.5)
	change[0], change[1] = 200, 200
	if j := judge(parent, change, "lower", 0.25, true); j.verdict == improved {
		t.Errorf("8/10 pairs: verdict %s, want no gain", j.verdict)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "core.decode", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "core.solve", StartNs: 20, EndNs: 50},
		{ID: 3, Parent: 2, Name: "errorproof.psi", StartNs: 25, EndNs: 35},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"cell": 60, "core.decode": 20, "core.solve": 20, "errorproof.psi": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestBenchReportCheck(t *testing.T) {
	ref, err := newRefs("../BENCH_0.json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cell := scenario.CellRequest{Family: scenario.PaddedFamily, Solver: "pi3-det", N: 4, Seed: 1, Engine: single}
	b, ok := ref.bench[keyOf(cell)]
	if !ok {
		t.Fatal("pi3-det n=4 seed 1 missing from the committed report")
	}
	if b.Rounds != 205 || b.Messages != 709700 || b.RelayWords != 1392184 || b.Checksum != "e540aeadcf61dab7" {
		t.Fatalf("committed pi3-det cell = %+v", b)
	}
	ref.checksum[cell] = b.Checksum
	good := b
	if err := ref.check(cell, &good); err != nil {
		t.Errorf("committed values rejected: %v", err)
	}
	bad := b
	bad.Rounds++
	if err := ref.check(cell, &bad); err == nil {
		t.Error("a rounds mismatch against the committed report passed")
	}
}

// A planted wrong reference checksum must fail the run: counted in
// fail_ratio, correct false, non-zero exit.
func TestPlantedWrongReferenceFailsRun(t *testing.T) {
	cfg := config{workload: "flat", seed: 1, seconds: time.Millisecond, bench: "../BENCH_0.json", minPasses: 1}
	cfg.corrupt = func(r *refs) {
		for c := range r.checksum {
			if c.Solver == "sinkless-rand" {
				r.checksum[c] = "0000000000000000"
			}
		}
	}
	out, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.tally.mismatches == 0 || out.tally.failRatio() == 0 {
		t.Fatalf("planted reference not caught: %+v", out.tally)
	}
	res := render(cfg, out, io.Discard, io.Discard)
	if res.Correct || res.Failed == 0 || exitCode(res) == 0 {
		t.Errorf("result %+v, exit %d: want incorrect, failed > 0, non-zero exit", res, exitCode(res))
	}
	cfg.corrupt = nil
	out, err = runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := render(cfg, out, io.Discard, io.Discard); !res.Correct || res.Failed != 0 || exitCode(res) != 0 {
		t.Errorf("clean run %+v: want correct", res)
	}
}

// The replay through the layers' entry points must reproduce the
// registry's checksum on padded, engine, view-gathering and
// decomposition cells.
func TestReplayMatchesRegistry(t *testing.T) {
	cells := []scenario.CellRequest{
		{Family: scenario.PaddedFamily, Solver: "pi2-det", N: 12, Seed: 1, Engine: single},
		{Family: scenario.PaddedFamily, Solver: "pi2-rand-gather", N: 12, Seed: 1, Engine: single},
		{Family: scenario.PaddedFamily, Solver: "pi2-rand-native-oracle", N: 12, Seed: 1},
		{Family: "cycle", Solver: "cole-vishkin", N: 64, Seed: 2, Engine: single},
		{Family: "regular", Solver: "sinkless-det", N: 64, Seed: 1},
		{Family: "tree", Solver: "netdecomp", N: 63, Seed: 1},
	}
	want := map[scenario.CellRequest]string{}
	for _, c := range cells {
		res, err := scenario.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = res.Checksum
	}
	rr, err := replay(newTracer(), cells, want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.tally.failed() != 0 || rr.tally.attempted == 0 {
		t.Fatalf("replay tally %+v: %v", rr.tally, rr.errs)
	}
	want[cells[0]] = "0000000000000000"
	if rr, err = replay(newTracer(), cells[:1], want, 0); err != nil || rr.tally.mismatches == 0 {
		t.Errorf("a wrong registry checksum passed the replay (err %v)", err)
	}
}

func TestScheduleDeterministicAndStratified(t *testing.T) {
	mix, err := serveMix()
	if err != nil {
		t.Fatal(err)
	}
	a, err := schedule(mix, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule(mix, 7, time.Second)
	if len(a) < minRequests || len(a) != len(b) {
		t.Fatalf("schedule lengths %d, %d; want equal and ≥ %d", len(a), len(b), minRequests)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
	}
	for start := 0; start+len(mix) <= len(a); start += len(mix) {
		seen := map[scenario.CellRequest]int{}
		fresh := 0
		for _, x := range a[start : start+len(mix)] {
			c := x.Cell
			if c.Seed >= freshSeedBase {
				fresh++
				c.Seed = 0
			}
			seen[c]++
		}
		if fresh != freshPerBlock {
			t.Fatalf("block at %d: %d fresh seeds, want %d", start, fresh, freshPerBlock)
		}
		for _, m := range mix {
			if seen[m]+seen[scenario.CellRequest{Family: m.Family, Solver: m.Solver, N: m.N, Engine: m.Engine}] == 0 {
				t.Fatalf("block at %d misses cell %s", start, cellID(m))
			}
		}
	}
	if c, _ := schedule(mix, 8, time.Second); c[0] == a[0] && c[1] == a[1] {
		t.Error("two seeds gave the same schedule start")
	}
}

// The program's metric tables are BENCHMARK.json's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, perLayer[i])
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := fmt.Sprint(names); got != "[tower flat serve-mixed]" {
		t.Errorf("BENCHMARK.json workloads %s, the program runs [tower flat serve-mixed]", got)
	}
}

// Every request of an open loop is accounted for exactly once and
// checked; run with -race, it also checks the load generator's sharing.
func TestOpenLoopBooks(t *testing.T) {
	mix, err := serveMix()
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []loadgen.Arrival
	for i := 0; i < 40; i++ {
		c := mix[i%4] // the cheap cole-vishkin cells
		if i%10 == 9 {
			c.Seed = freshSeedBase + int64(i)
		}
		arrivals = append(arrivals, loadgen.Arrival{At: time.Duration(i) * time.Millisecond, Cell: c})
	}
	ref, err := newRefs("../BENCH_0.json", distinctCells(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Workers: serveWorkers})
	defer srv.Close()
	or := openLoop(srv, arrivals, 8, ref)
	if or.tally.attempted != 40 || or.tally.failed() != 0 || len(or.latency) != 40 || len(or.late) != 40 {
		t.Fatalf("books: %+v, %d latencies, %d lateness samples: %v", or.tally, len(or.latency), len(or.late), or.errs)
	}
	if len(or.passes) != 5 {
		t.Fatalf("%d passes of 8 requests, want 5", len(or.passes))
	}
	for i, p := range or.passes {
		slowest := 0.0
		for _, l := range or.latency[8*i : 8*i+8] {
			slowest = max(slowest, l)
		}
		if p != slowest {
			t.Errorf("pass %d: %g ms, its slowest request %g ms", i, p, slowest)
		}
	}
	done := or.after.Completed - or.before.Completed + or.after.Coalesced - or.before.Coalesced
	if done != 40 {
		t.Errorf("server completed+coalesced %d, want 40", done)
	}
}
