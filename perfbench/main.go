// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and prints every end-to-end metric by
// name and unit (or, with --trace 1, every per-layer metric), checks
// every output against a reference computed outside the timed region,
// and ends with one JSON line:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tower --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and what each per-layer
// metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"locallab/internal/scenario"
	"locallab/internal/serve"
)

const (
	// maxProcs caps GOMAXPROCS: the load comes from one process using at
	// most two cores, the reference machine's count.
	maxProcs = 2
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 21
	// warmPasses run before timing so lazy set-up has finished.
	warmPasses = 2
	// minPasses keeps ten passes beyond p90.
	minPasses = 100
	// minReplayPasses is the fewest traced replay passes a run makes.
	minReplayPasses = 3
	// maxMeasure bounds one run's measuring time, so a slow machine
	// still ends well within three minutes.
	maxMeasure = 120 * time.Second
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// bench is the committed ci-smoke report the shared cells must match.
	bench string
	// spans is where a traced run writes its spans.
	spans string
	// minPasses is the closed loops' pass floor.
	minPasses int
	// corrupt, when set, edits the references before the run.
	corrupt func(*refs)
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a finished run before it is printed.
type outcome struct {
	values map[string]float64
	tally  tally
	errs   []string
	notes  []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: tower, flat or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	record := fs.String("record", "", "append the run's result, tagged with workload and seed, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1, --trace 0 or 1, no positional arguments")
		return 2
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		bench:     "BENCH_0.json",
		spans:     filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed)),
		minPasses: minPasses,
	}
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "workload %s seed %d: %v measured, GOMAXPROCS %d, trace %v\n",
		cfg.workload, cfg.seed, cfg.seconds, procs, cfg.trace)
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := render(cfg, out, stdout, stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, cfg, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

// exitCode fails a run whose outputs were not all correct.
func exitCode(r *result) int {
	if !r.Correct {
		return 1
	}
	return 0
}

// runWorkload dispatches on the workload name.
func runWorkload(cfg config) (*outcome, error) {
	switch cfg.workload {
	case "tower":
		return closedWorkload(cfg, towerCells(cfg.seed))
	case "flat":
		return closedWorkload(cfg, flatCells(cfg.seed))
	case "serve-mixed":
		return serveWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (known: tower, flat, serve-mixed)", cfg.workload)
}

// render prints the human-readable lines and builds the JSON result.
func render(cfg config, out *outcome, stdout, stderr io.Writer) *result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{
		// A rejection fails the request but is not a wrong output.
		Correct:   out.tally.errors == 0 && out.tally.mismatches == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := out.values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-26s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if !cfg.trace {
		for _, d := range ungated {
			fmt.Fprintf(stdout, "%-26s %14.4f %s (not gated)\n", d.Name, out.values[d.Name], d.Unit)
		}
		// Both can be 0, which a gated metric must never be: the JSON
		// line carries fail_ratio as failed/attempted, and the traced
		// run records both without a bound.
		fmt.Fprintf(stdout, "%-26s %14.4f ratio (%d failed of %d)\n", "fail_ratio", out.tally.failRatio(), out.tally.failed(), out.tally.attempted)
		if cfg.workload == "serve-mixed" {
			fmt.Fprintf(stdout, "%-26s %14.4f ratio (limit %v)\n", "slo_miss_ratio", out.tally.sloMissRatio(), latencyLimit)
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for i, e := range out.errs {
		if i == 10 {
			fmt.Fprintf(stderr, "... %d more failures\n", len(out.errs)-i)
			break
		}
		fmt.Fprintln(stderr, "FAIL", e)
	}
	return res
}

// record is one line of a result set, as compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, cfg config, res *result) error {
	line, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupClosed prepares every cell setupRepeats times, keeping the last
// set, and returns the runners with each setup's time in seconds.
func setupClosed(reqs []scenario.CellRequest) ([]*scenario.CellRunner, []float64, error) {
	var runners []*scenario.CellRunner
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		closeAll(runners)
		// Every setup starts from a collected heap, so a collection
		// left over from the previous one does not land in it.
		runtime.GC()
		t0 := time.Now()
		rs, err := prepareAll(reqs)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runners = rs
	}
	return runners, setups, nil
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mb(m.HeapAlloc)
}

// passNote states a percentile's sample count and how many samples lie
// beyond it.
func passNote(name string, n int, p float64) string {
	note := fmt.Sprintf("  %s: %d samples, %d beyond", name, n, beyond(n, p))
	if !tailOK(n, p) {
		note += fmt.Sprintf(" (fewer than %d: read it as a high percentile, not p%g)", minBeyond, p)
	}
	return note
}

// closedWorkload runs tower or flat: a closed loop with one caller.
func closedWorkload(cfg config, reqs []scenario.CellRequest) (*outcome, error) {
	runners, setups, err := setupClosed(reqs)
	if err != nil {
		return nil, err
	}
	defer func() { closeAll(runners) }()
	ref, err := newRefs(cfg.bench, reqs)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt != nil {
		cfg.corrupt(ref)
	}
	limit := min(max(2*cfg.seconds, 30*time.Second), maxMeasure)
	warm := closedLoop(runners, ref, 0, warmPasses, limit)
	out := &outcome{values: map[string]float64{}, tally: warm.tally, errs: warm.errs}
	heap := liveHeapMB()
	if !cfg.trace {
		cl := closedLoop(runners, ref, cfg.seconds, cfg.minPasses, limit)
		out.tally.add(cl.tally)
		out.errs = append(out.errs, cl.errs...)
		passes := float64(len(cl.pass))
		v := out.values
		v["setup_s"] = median(setups)
		v["pass_ms_p50"] = percentile(cl.pass, 50)
		v["pass_ms_p90"] = percentile(cl.pass, 90)
		v["latency_ms_p50"] = percentile(cl.solve, 50)
		v["latency_ms_p99"] = percentile(cl.solve, 99)
		v["solves_per_s"] = float64(len(cl.solve)) / cl.elapsed.Seconds()
		v["alloc_mb_per_pass"] = mb(cl.allocBytes) / passes
		v["kallocs_per_pass"] = float64(cl.mallocs) / 1e3 / passes
		v["live_heap_mb"] = heap
		out.notes = append(out.notes,
			fmt.Sprintf("  closed loop, 1 caller, %d cells per pass, engine workers 1", len(reqs)),
			passNote("pass_ms_p90", len(cl.pass), 90),
			passNote("latency_ms_p99 (one cell re-solve)", len(cl.solve), 99))
		return out, nil
	}
	// Traced run: half the time untraced through the registry, half
	// replaying the cells through the layers with spans.
	cl := closedLoop(runners, ref, cfg.seconds/2, minReplayPasses, limit)
	out.tally.add(cl.tally)
	out.errs = append(out.errs, cl.errs...)
	if err := tracedPhase(cfg, reqs, cl.last, median(cl.pass), out); err != nil {
		return nil, err
	}
	out.values["solver.prepare_ms"] = median(setups) * 1e3
	out.values["solver.run_ms"] = median(cl.pass)
	out.values["fail_ratio"] = out.tally.failRatio()
	return out, nil
}

// tracedPhase replays the cells through the layers for half the run,
// writes the spans and fills the per-layer metrics. want holds the
// registry's checksum per cell; untracedMs is the registry pass median.
func tracedPhase(cfg config, reqs []scenario.CellRequest, want map[scenario.CellRequest]string, untracedMs float64, out *outcome) error {
	t := newTracer()
	rr, err := replay(t, reqs, want, cfg.seconds/2)
	if err != nil {
		return err
	}
	out.tally.add(rr.tally)
	out.errs = append(out.errs, rr.errs...)
	if err := t.write(cfg.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	v := out.values
	med := func(ps []layerPass, f func(layerPass) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	for span, name := range spanMetrics {
		v[name] = med(rr.passes, func(p layerPass) float64 { return p[span] / 1e6 })
	}
	for _, name := range countMetrics {
		v[name] = med(rr.passes, func(p layerPass) float64 { return p[name] })
	}
	v["solver.checksum_us"] = med(rr.passes, func(p layerPass) float64 { return p["solver.checksum"] / 1e3 })
	v["core.relay_assemble_ms"] = med(rr.passes, func(p layerPass) float64 {
		return (p["core.solve"] - p["core.decode"] - p["errorproof.psi"]) / 1e6
	})
	v["engine.ns_per_delivery"] = med(rr.passes, func(p layerPass) float64 {
		if p["engine.deliveries"] == 0 {
			return 0
		}
		return p["engine.busy"] / p["engine.deliveries"]
	})
	v["graph.build_ms"] = med(rr.build, func(p layerPass) float64 { return p["graph.build"] / 1e6 })
	v["core.build_ms"] = med(rr.build, func(p layerPass) float64 { return p["core.build"] / 1e6 })
	v["trace.overhead_ms"] = median(rr.wall) - untracedMs
	out.notes = append(out.notes,
		fmt.Sprintf("  traced replay: %d passes, %d spans written to %s", len(rr.passes), len(t.spans), cfg.spans),
		fmt.Sprintf("  trace.overhead_ms = traced replay pass p50 %.3f ms - untraced registry pass p50 %.3f ms", median(rr.wall), untracedMs),
		"  core.relay_assemble_ms is derived: core.solve_ms - core.decode_ms - errorproof.psi_ms")
	out.notes = append(out.notes, strings.TrimRight(formatSelf(selfTimes(passSpans(t.spans)), len(rr.passes)), "\n"))
	return nil
}

// serveWorkload runs serve-mixed: an open loop into an in-process
// server.
func serveWorkload(cfg config) (*outcome, error) {
	mix, err := serveMix()
	if err != nil {
		return nil, err
	}
	var srv *serve.Server
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		srv = serve.New(serve.Options{Workers: serveWorkers})
		if err := srv.Prewarm(mix); err != nil {
			srv.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.Close()
	arrivals, err := schedule(mix, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	cells := distinctCells(arrivals)
	ref, err := newRefs(cfg.bench, append(append([]scenario.CellRequest(nil), mix...), cells...))
	if err != nil {
		return nil, err
	}
	if cfg.corrupt != nil {
		cfg.corrupt(ref)
	}
	out := &outcome{values: map[string]float64{}}
	// Warm every pooled runner once, untimed.
	for _, c := range mix {
		res, err := srv.Do(context.Background(), c)
		out.tally.attempted++
		switch {
		case err != nil:
			out.tally.errors++
			out.errs = append(out.errs, fmt.Sprintf("%s: %v", cellID(c), err))
		default:
			if err := ref.check(c, res); err != nil {
				out.tally.mismatches++
				out.errs = append(out.errs, err.Error())
			}
		}
	}
	heap := liveHeapMB()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	or := openLoop(srv, arrivals, len(mix), ref)
	runtime.ReadMemStats(&after)
	out.tally.add(or.tally)
	out.errs = append(out.errs, or.errs...)
	completed := float64(len(or.latency))
	v := out.values
	v["setup_s"] = median(setups)
	v["pass_ms_p50"] = percentile(or.passes, 50)
	v["pass_ms_p90"] = percentile(or.passes, 90)
	v["latency_ms_p50"] = percentile(or.latency, 50)
	v["latency_ms_p99"] = percentile(or.latency, 99)
	v["solves_per_s"] = per(completed, or.elapsed.Seconds())
	v["alloc_mb_per_pass"] = per(mb(after.TotalAlloc-before.TotalAlloc)*float64(len(mix)), completed)
	v["kallocs_per_pass"] = per(float64(after.Mallocs-before.Mallocs)/1e3*float64(len(mix)), completed)
	v["live_heap_mb"] = heap
	fresh := 0
	for _, a := range arrivals {
		if a.Cell.Seed >= freshSeedBase {
			fresh++
		}
	}
	out.notes = append(out.notes,
		fmt.Sprintf("  open loop, Poisson %.0f req/s, %d requests (%d fresh seeds), server workers %d; a pass is a block of %d requests, one per mix cell",
			serveRate, len(arrivals), fresh, serveWorkers, len(mix)),
		passNote("pass_ms_p90 (slowest request of a pass)", len(or.passes), 90),
		passNote("latency_ms_p99 (due time to reply)", len(or.latency), 99))
	if !cfg.trace {
		return out, nil
	}
	hits := or.after.PoolHits - or.before.PoolHits
	misses := or.after.PoolMisses - or.before.PoolMisses
	v["serve.pool_hit_ratio"] = ratio(hits, hits+misses)
	v["serve.queue_depth_max"] = float64(or.depthMax)
	v["serve.coalesced"] = float64(or.after.Coalesced - or.before.Coalesced)
	v["serve.rejected"] = float64(or.after.Rejected - or.before.Rejected)
	v["driver.late_ms_p99"] = percentile(or.late, 99)
	v["slo_miss_ratio"] = or.tally.sloMissRatio()
	// The layers under the server: registry passes and a traced replay
	// over the mix's cells, a quarter of the time each.
	runners, setupsMix, err := setupClosed(mix)
	if err != nil {
		return nil, err
	}
	defer func() { closeAll(runners) }()
	limit := min(max(2*cfg.seconds, 30*time.Second), maxMeasure)
	cl := closedLoop(runners, ref, cfg.seconds/4, minReplayPasses, limit)
	out.tally.add(cl.tally)
	out.errs = append(out.errs, cl.errs...)
	sub := cfg
	sub.seconds = cfg.seconds / 2
	if err := tracedPhase(sub, mix, cl.last, median(cl.pass), out); err != nil {
		return nil, err
	}
	v["solver.prepare_ms"] = median(setupsMix) * 1e3
	v["solver.run_ms"] = median(cl.pass)
	v["fail_ratio"] = out.tally.failRatio()
	return out, nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
