package main

import (
	"fmt"
	"runtime"
	"time"

	"locallab/internal/scenario"
)

// prepareAll prepares one runner per cell.
func prepareAll(reqs []scenario.CellRequest) ([]*scenario.CellRunner, error) {
	runners := make([]*scenario.CellRunner, 0, len(reqs))
	for _, r := range reqs {
		cr, err := scenario.NewRunner(r)
		if err != nil {
			closeAll(runners)
			return nil, fmt.Errorf("prepare %s: %w", cellID(r), err)
		}
		runners = append(runners, cr)
	}
	return runners, nil
}

func closeAll(runners []*scenario.CellRunner) {
	for _, r := range runners {
		r.Close()
	}
}

// closedRun is one closed-loop measurement: a single caller re-solves
// every cell in turn (a pass), and starts the next pass as soon as the
// previous one returns.
type closedRun struct {
	pass    []float64 // pass wall time, ms
	solve   []float64 // one cell re-solve, ms
	elapsed time.Duration
	// allocBytes and mallocs are the heap allocations of the whole
	// measured loop.
	allocBytes, mallocs uint64
	tally               tally
	errs                []string
	// last holds each cell's most recent result checksum.
	last map[scenario.CellRequest]string
}

// closedLoop runs passes until at least d has elapsed and at least
// minPasses passes are done, or until limit has elapsed.
func closedLoop(runners []*scenario.CellRunner, ref *refs, d time.Duration, minPasses int, limit time.Duration) *closedRun {
	out := &closedRun{last: map[scenario.CellRequest]string{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for (len(out.pass) < minPasses || time.Since(start) < d) && time.Since(start) < limit {
		p0 := time.Now()
		for _, r := range runners {
			t0 := time.Now()
			res, err := r.Run()
			dt := time.Since(t0)
			out.tally.attempted++
			req := r.Request()
			if err != nil {
				out.tally.errors++
				out.errs = append(out.errs, fmt.Sprintf("%s: %v", cellID(req), err))
				continue
			}
			out.solve = append(out.solve, ms(dt))
			out.last[req] = res.Checksum
			if err := ref.check(req, res); err != nil {
				out.tally.mismatches++
				out.errs = append(out.errs, err.Error())
			}
		}
		out.pass = append(out.pass, ms(time.Since(p0)))
	}
	out.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	out.mallocs = after.Mallocs - before.Mallocs
	return out
}
