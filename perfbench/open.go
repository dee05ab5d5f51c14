package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"locallab/internal/scenario"
	"locallab/internal/serve"
	"locallab/internal/serve/loadgen"
)

// The serve-mixed load. Each is a constant, never derived per run, so
// two commits are offered the same load.
const (
	// serveRate is the Poisson arrival rate in requests per second.
	// The server's execution capacity on a 2-core machine is two
	// workers over the mix's mean solo re-solve: a registry pass over
	// its 21 cells took 238 ms idle and about 350 ms with the machine
	// shared, so 120 to 175 req/s. The rate is below half of that, so
	// the latency distribution keeps its shape when a shared machine
	// slows by half. Coalescing of identical in-flight requests lets the
	// server keep up with offered rates far above capacity, a regime
	// this workload stays out of.
	serveRate = 40.0
	// serveWorkers is the server's worker count.
	serveWorkers = 2
	// latencyLimit is the p99 latency limit behind slo_miss_ratio.
	latencyLimit = 300 * time.Millisecond
	// freshPerBlock arrivals in every len(mix) = 21 get a fresh
	// instance seed (about a tenth): they miss the session pool and pay
	// Prepare inline.
	freshPerBlock = 2
	// freshSeedBase offsets fresh seeds away from the mix's own seeds.
	freshSeedBase = 1 << 20
	// minRequests keeps ten samples beyond p99.
	minRequests = 1000
)

// schedule builds the open-loop arrival schedule from the workload seed.
// loadgen.Generate gives the Poisson arrival times; the schedule keeps
// the first serveRate·d of them, at least minRequests, so every run
// offers the same number of requests. The cells are then dealt from
// seeded shuffles of the mix, each block of len(mix) arrivals holding
// every cell once, and freshPerBlock arrivals of each block get a
// unique instance seed. The mix's composition is thus the same in every
// run and only the timing varies with the seed: with independent draws,
// the share of the two ~100 ms tower cells alone moved the latency
// median by 18% from seed to seed.
func schedule(mix []scenario.CellRequest, seed int64, d time.Duration) ([]loadgen.Arrival, error) {
	n := max(minRequests, int(serveRate*d.Seconds()))
	// Twice the expected span: falling short is a ~30σ event.
	span := 2 * time.Duration(float64(n)/serveRate*float64(time.Second))
	arrivals, err := loadgen.Generate([]loadgen.Window{{Process: loadgen.ProcessPoisson, Rate: serveRate, Duration: span}}, mix, seed)
	if err != nil {
		return nil, err
	}
	if len(arrivals) < n {
		return nil, fmt.Errorf("schedule: %d arrivals in %v, want %d", len(arrivals), span, n)
	}
	arrivals = arrivals[:n]
	// A stream apart from the schedule's own, which loadgen seeds with seed.
	rng := rand.New(rand.NewSource(^seed))
	for b := 0; b < len(arrivals); b += len(mix) {
		order := rng.Perm(len(mix))
		fresh := map[int]bool{}
		for _, i := range rng.Perm(len(mix))[:freshPerBlock] {
			fresh[i] = true
		}
		for i := 0; i < len(mix) && b+i < len(arrivals); i++ {
			a := &arrivals[b+i]
			a.Cell = mix[order[i]]
			if fresh[i] {
				a.Cell.Seed = freshSeedBase + int64(b+i)
			}
		}
	}
	return arrivals, nil
}

// request is one open-loop request as the load generator saw it.
type request struct {
	due, sent, done time.Time
	err             error
}

// openRun is one open-loop measurement against an in-process server.
type openRun struct {
	latency []float64 // due → reply, ms, completed requests
	// passes holds, per block of consecutive arrivals that all
	// completed correctly, the block's largest latency in ms: the pass
	// is served once its slowest request has returned.
	passes   []float64
	late     []float64 // due → send, ms, every request
	elapsed  time.Duration
	depthMax int
	tally    tally
	errs     []string
	before   serve.Stats
	after    serve.Stats
}

// openLoop fires the schedule at srv: each arrival is sent at its due
// time whether or not earlier requests have returned, and timed from
// that due time, so a stall in the generator or the server shows as
// latency of every request it delays. Consecutive arrivals form blocks
// of block requests, the schedule's passes over the mix.
func openLoop(srv *serve.Server, arrivals []loadgen.Arrival, block int, ref *refs) *openRun {
	out := &openRun{before: srv.Stats()}
	reqs := make([]request, len(arrivals))
	results := make([]*scenario.CellResult, len(arrivals))
	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		reqs[i].due, reqs[i].sent = due, time.Now()
		out.depthMax = max(out.depthMax, srv.Stats().QueueDepth)
		wg.Add(1)
		go func(i int, c scenario.CellRequest) {
			defer wg.Done()
			results[i], reqs[i].err = srv.Do(ctx, c)
			reqs[i].done = time.Now()
		}(i, a.Cell)
	}
	wg.Wait()
	var last time.Time
	pass, whole := 0.0, true
	for i, r := range reqs {
		if i%block == 0 {
			pass, whole = 0, true
		}
		ok := false
		out.tally.attempted++
		out.late = append(out.late, ms(r.sent.Sub(r.due)))
		switch {
		case errors.Is(r.err, serve.ErrOverloaded):
			out.tally.rejected++
		case r.err != nil:
			out.tally.errors++
			out.errs = append(out.errs, fmt.Sprintf("%s: %v", cellID(arrivals[i].Cell), r.err))
		default:
			if err := ref.check(arrivals[i].Cell, results[i]); err != nil {
				out.tally.mismatches++
				out.errs = append(out.errs, err.Error())
				break
			}
			ok = true
			lat := r.done.Sub(r.due)
			if lat > latencyLimit {
				out.tally.overLimit++
			}
			out.latency = append(out.latency, ms(lat))
			pass = max(pass, ms(lat))
			if r.done.After(last) {
				last = r.done
			}
		}
		whole = whole && ok
		if i%block == block-1 && whole {
			out.passes = append(out.passes, pass)
		}
	}
	out.elapsed = last.Sub(start)
	out.after = srv.Stats()
	return out
}

// distinctCells lists the schedule's cells once each, in first-arrival
// order.
func distinctCells(arrivals []loadgen.Arrival) []scenario.CellRequest {
	seen := map[scenario.CellRequest]bool{}
	var out []scenario.CellRequest
	for _, a := range arrivals {
		if !seen[a.Cell] {
			seen[a.Cell] = true
			out = append(out, a.Cell)
		}
	}
	return out
}
