package main

import (
	"encoding/json"
	"fmt"
	"os"

	"locallab/internal/scenario"
	"locallab/internal/serve"
)

// single is the engine geometry of the closed-loop workloads: one
// worker, the plain single-threaded baseline.
var single = scenario.EngineParams{Workers: 1}

// towerCells are the padded cells of the tower workload. The padded
// pipeline (label decode, Ψ, relay, assembly, output verification)
// dominates them; native and gather run the same inner algorithm on the
// same instance, so a transport change shows against its own baseline.
func towerCells(seed int64) []scenario.CellRequest {
	return []scenario.CellRequest{
		{Family: scenario.PaddedFamily, Solver: "pi2-det", N: 32, Seed: seed, Engine: single},
		{Family: scenario.PaddedFamily, Solver: "pi2-rand-native", N: 32, Seed: seed, Engine: single},
		{Family: scenario.PaddedFamily, Solver: "pi2-rand-gather", N: 32, Seed: seed, Engine: single},
		{Family: scenario.PaddedFamily, Solver: "pi3-det", N: 4, Seed: seed, Engine: single},
	}
}

// flatCells are plain-graph cells with no padding: the engine round
// loop and the graph layer do the work, the padded and label code none.
// Each cell runs on two instances, seeds 2·seed−1 and 2·seed, so one
// instance's shape weighs less on a pass.
func flatCells(seed int64) []scenario.CellRequest {
	var out []scenario.CellRequest
	for _, s := range []int64{2*seed - 1, 2 * seed} {
		out = append(out,
			scenario.CellRequest{Family: "cycle", Solver: "cole-vishkin", N: 65536, Seed: s, Engine: single},
			scenario.CellRequest{Family: "regular", Solver: "sinkless-det", N: 256, Seed: s},
			scenario.CellRequest{Family: "regular", Solver: "sinkless-msg", N: 1024, Seed: s, Engine: single},
			scenario.CellRequest{Family: "regular", Solver: "sinkless-rand", N: 1024, Seed: s},
			scenario.CellRequest{Family: "torus", Solver: "netdecomp", N: 256, Seed: s})
	}
	return out
}

// serveMix is the serve-mixed workload's cell mix: every ci-smoke cell.
func serveMix() ([]scenario.CellRequest, error) { return serve.BuiltinMix("ci-smoke") }

// oracleOf maps a padded engine entry to the sequential oracle whose
// checksum it must equal.
var oracleOf = map[string]string{
	"pi2-det":         "pi2-det-oracle",
	"pi2-rand":        "pi2-rand-oracle",
	"pi3-det":         "pi3-det-oracle",
	"pi3-rand":        "pi3-rand-oracle",
	"pi2-rand-native": "pi2-rand-native-oracle",
	"pi2-rand-gather": "pi2-rand-native-oracle",
}

// cellID names a cell in spans and messages.
func cellID(r scenario.CellRequest) string {
	return fmt.Sprintf("%s/%s/n%d/s%d", r.Family, r.Solver, r.N, r.Seed)
}

// benchKey identifies a cell in the committed ci-smoke report. Engine
// geometry is not part of it: outputs are identical across geometries.
type benchKey struct {
	family, solver string
	n              int
	seed           int64
}

func keyOf(r scenario.CellRequest) benchKey { return benchKey{r.Family, r.Solver, r.N, r.Seed} }

// refs holds the expected result of every cell a run executes, all
// computed before the timed region.
type refs struct {
	// checksum is the reference checksum per cell: the padded entry's
	// sequential oracle, or a one-shot scenario.RunCell for every other
	// entry.
	checksum map[scenario.CellRequest]string
	// bench holds the committed ci-smoke cells; a cell found here must
	// match its rounds, messages, relay words and checksum exactly.
	bench map[benchKey]scenario.CellResult
}

// loadBench reads the committed ci-smoke report (BENCH_0.json).
func loadBench(path string) (map[benchKey]scenario.CellResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference report: %w", err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("reference report %s: %w", path, err)
	}
	out := map[benchKey]scenario.CellResult{}
	for _, sc := range rep.Scenarios {
		for _, c := range sc.Cells {
			out[benchKey{sc.Family, sc.Solver, c.N, c.Seed}] = c
		}
	}
	return out, nil
}

// newRefs computes the reference checksum of every distinct cell.
func newRefs(benchPath string, cells []scenario.CellRequest) (*refs, error) {
	bench, err := loadBench(benchPath)
	if err != nil {
		return nil, err
	}
	r := &refs{checksum: map[scenario.CellRequest]string{}, bench: bench}
	for _, c := range cells {
		if _, ok := r.checksum[c]; ok {
			continue
		}
		ref := c
		if o, ok := oracleOf[c.Solver]; ok {
			ref.Solver, ref.Engine = o, scenario.EngineParams{}
		}
		res, err := scenario.RunCell(ref)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", cellID(ref), err)
		}
		r.checksum[c] = res.Checksum
	}
	return r, nil
}

// check compares one result with the cell's references.
func (r *refs) check(c scenario.CellRequest, got *scenario.CellResult) error {
	want, ok := r.checksum[c]
	if !ok {
		return fmt.Errorf("%s: no reference checksum", cellID(c))
	}
	if got.Checksum != want {
		return fmt.Errorf("%s: checksum %s, reference %s", cellID(c), got.Checksum, want)
	}
	b, ok := r.bench[keyOf(c)]
	if !ok {
		return nil
	}
	if got.Rounds != b.Rounds || got.Messages != b.Messages || got.RelayWords != b.RelayWords || got.Checksum != b.Checksum {
		return fmt.Errorf("%s: rounds/messages/relay_words/checksum %d/%d/%d/%s, committed report %d/%d/%d/%s",
			cellID(c), got.Rounds, got.Messages, got.RelayWords, got.Checksum,
			b.Rounds, b.Messages, b.RelayWords, b.Checksum)
	}
	return nil
}
