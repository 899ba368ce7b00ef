package dse

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/sched"
)

// ProgressInfo snapshots an in-flight exploration for progress
// reporting.
type ProgressInfo struct {
	Done, Total int
	// Failed counts evaluations where no unroll factor compiled.
	// Work abandoned because the context was cancelled is counted in
	// Cancelled, never here.
	Failed int64
	// Cancelled counts evaluations abandoned by context cancellation.
	Cancelled int64
	// Elapsed is wall time since the exploration started.
	Elapsed time.Duration
	// RatePerSec is evaluations completed per second of wall time.
	RatePerSec float64
	// ETA estimates remaining wall time at the current rate.
	ETA time.Duration
}

// Explorer runs the full experiment: every concrete machine in the
// design space (design points × cluster arrangements) against every
// benchmark.
type Explorer struct {
	Cost       machine.CostModel
	Cycle      machine.CycleModel
	Benchmarks []*bench.Benchmark
	Archs      []machine.Arch // default: machine.FullSpace()
	Workers    int            // default: GOMAXPROCS
	Width      int            // reference workload width (default 96)
	// Cache, when set, replaces the evaluator's memory-only result
	// store with a persistent (or fleet-tiered) evaluation cache (see
	// internal/evcache). Results are identical with or without it; a
	// warm cache skips backend work entirely, and when it covers a
	// benchmark's whole (arch × kernel) slice the prepare warm-up is
	// skipped too.
	Cache *evcache.Cache
	// Progress, if set, is called with monotonically increasing Done
	// counts as evaluations complete. Calls are serialized, but never
	// block the workers: when the sink is slower than the fleet,
	// intermediate updates are dropped; the final update (Done == Total)
	// is always delivered.
	Progress func(ProgressInfo)
}

// NewExplorer returns an explorer over the full space and benchmark
// suite with default models.
func NewExplorer() *Explorer {
	return &Explorer{
		Cost:       machine.DefaultCostModel,
		Cycle:      machine.DefaultCycleModel,
		Benchmarks: bench.All(),
		Archs:      machine.FullSpace(),
		Width:      96,
	}
}

// PhaseTimes breaks exploration wall time down by pipeline phase.
// Times are cumulative across workers, so their sum can exceed the
// single wall-clock duration on multi-worker runs.
type PhaseTimes struct {
	// Compile is time in the backend (partition/schedule/allocate/spill).
	Compile time.Duration
	// Simulate is time in reference-workload interpreter runs.
	Simulate time.Duration
	// CostModel is time computing datapath costs for the space.
	CostModel time.Duration
}

// Stats summarizes an exploration run (the paper's Table 3).
type Stats struct {
	Runs          int64 // benchmark compilations
	Architectures int   // concrete machines evaluated
	DesignPoints  int   // unclustered design points
	Benchmarks    int
	WallTime      time.Duration
	PerArch       time.Duration // wall time / architectures
	PerRun        time.Duration // wall time / runs
	// Failures counts evaluations where no unroll factor compiled.
	// Zero-valued in files saved before this field existed. Evaluations
	// abandoned by context cancellation are counted in Cancelled, not
	// here (a cancelled run is not a compile failure).
	Failures int64
	// Cancelled counts evaluations abandoned because the exploration's
	// context ended. Always zero for a run that completed.
	Cancelled int64 `json:",omitempty"`
	// BaselineRuns counts the compilations (logical, like Runs — and
	// included in it) spent evaluating the baseline machine when it is
	// not part of the explored grid. Zero whenever the baseline is in
	// Archs (the full space includes it), so files saved from full runs
	// are unchanged. The distributed coordinator (internal/dist)
	// subtracts it when merging shards: every shard evaluates the
	// baseline for its speedup denominators, but only the shard that
	// owns the baseline's grid cell may count it.
	BaselineRuns int64 `json:",omitempty"`
	// Phases attributes cumulative time to compile vs simulate vs
	// cost-model work. Zero-valued in files saved before this field
	// existed.
	Phases PhaseTimes
}

// Results holds every measurement from one exploration.
type Results struct {
	Archs   []machine.Arch
	Benches []string
	Cost    []float64               // per arch
	Eval    map[string][]Evaluation // bench -> per-arch evaluations
	Stats   Stats
	CostMdl machine.CostModel
}

// Run executes the exploration to completion (RunCtx with a background
// context).
func (e *Explorer) Run() (*Results, error) {
	return e.RunCtx(context.Background())
}

// RunCtx executes the exploration under ctx. Cancelling ctx stops the
// scheduling of new evaluations immediately, lets in-flight backend
// compiles finish (each is milliseconds), and returns an error wrapping
// ErrCancelled; no partial Results are returned. When ctx is never
// cancelled the Results are bit-identical to Run's.
func (e *Explorer) RunCtx(ctx context.Context) (*Results, error) {
	// The run's root span: parented under the context's span when one is
	// there (a serve.job continuing a coordinator's trace), a standalone
	// root otherwise. Threading it back through ctx parents every
	// per-evaluation span underneath.
	rsp := obs.StartSpanCtx(ctx, "dse.explore")
	defer rsp.End()
	ctx = obs.ContextWithSpan(ctx, rsp)

	archs := e.Archs
	if archs == nil {
		archs = machine.FullSpace()
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	width := e.Width
	if width <= 0 {
		width = 96
	}

	ev := NewEvaluator()
	ev.Width = width
	ev.Cycle = e.Cycle
	if e.Cache != nil {
		ev.Cache = e.Cache
	}

	res := &Results{
		Archs:   archs,
		Eval:    map[string][]Evaluation{},
		CostMdl: e.Cost,
	}
	for _, b := range e.Benchmarks {
		res.Benches = append(res.Benches, b.Name)
		res.Eval[b.Name] = make([]Evaluation, len(archs))
	}
	start := time.Now()
	res.Cost = make([]float64, len(archs))
	for i, a := range archs {
		res.Cost[i] = e.Cost.Cost(a)
	}
	costTime := time.Since(start)

	// Warm the per-benchmark caches serially (one prepare per unroll)
	// so workers do not duplicate the work under the cache lock. When
	// the result store already covers a benchmark's whole slice of
	// the space, skip its warm-up: no sweep will run, so the frontend
	// compiles and reference runs — the dominant cost of a warm re-run —
	// are never needed.
	for _, b := range e.Benchmarks {
		if ctx.Err() != nil {
			return nil, cancelledErr(ctx)
		}
		if ev.CacheCovers(b, archs) {
			continue
		}
		for _, u := range UnrollFactors {
			ev.prepare(rsp, b, u)
		}
	}

	type job struct {
		bi, ai int
	}
	jobs := make(chan job, workers*2)
	var wg sync.WaitGroup
	var done atomic.Int64
	var failed atomic.Int64
	var cancelled atomic.Int64
	// cbMu serializes the Progress callback without ever making workers
	// wait on it: the snapshot is assembled lock-free from the atomics,
	// and a contended intermediate update is simply dropped. lastDone
	// (under cbMu) keeps delivered updates monotonic when snapshots race.
	var cbMu sync.Mutex
	lastDone := 0
	total := len(e.Benchmarks) * len(archs)
	report := func(d int64) {
		elapsed := time.Since(start)
		p := ProgressInfo{
			Done:      int(d),
			Total:     total,
			Failed:    failed.Load(),
			Cancelled: cancelled.Load(),
			Elapsed:   elapsed,
		}
		if elapsed > 0 {
			p.RatePerSec = float64(d) / elapsed.Seconds()
		}
		if p.RatePerSec > 0 {
			p.ETA = time.Duration(float64(total-int(d)) / p.RatePerSec * float64(time.Second))
		}
		if int(d) == total {
			cbMu.Lock() // the final update must not be dropped
		} else if !cbMu.TryLock() {
			return // sink busy: skip this intermediate update
		}
		if p.Done > lastDone {
			lastDone = p.Done
			e.Progress(p)
		}
		cbMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := sched.NewScratch()
			var busy, wait time.Duration
			for {
				t0 := time.Now()
				j, ok := <-jobs
				wait += time.Since(t0)
				if !ok {
					break
				}
				b := e.Benchmarks[j.bi]
				t1 := time.Now()
				evl := ev.EvaluateScratchCtx(ctx, b, archs[j.ai], sc)
				busy += time.Since(t1)
				res.Eval[b.Name][j.ai] = evl
				switch {
				case evl.Cancelled:
					cancelled.Add(1)
				case evl.Failed:
					failed.Add(1)
				}
				d := done.Add(1)
				if e.Progress != nil {
					report(d)
				}
			}
			obs.GetHistogram("dse.worker_busy_seconds").Observe(busy.Seconds())
			obs.GetHistogram("dse.worker_queue_wait_seconds").Observe(wait.Seconds())
		}()
	}
	// Feed the fleet; a cancelled context stops scheduling right here —
	// workers then drain only what is already queued, and each of those
	// evaluations short-circuits to Cancelled before compiling.
feed:
	for bi := range e.Benchmarks {
		for ai := range archs {
			select {
			case jobs <- job{bi, ai}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()

	if ctx.Err() != nil {
		return nil, cancelledErr(ctx)
	}

	// Baseline times and speedups. The baseline machine is evaluated
	// like any other (it is in the space); if absent, evaluate it now
	// and attribute those runs to Stats.BaselineRuns (grid runs and
	// out-of-grid baseline runs must stay separable for distributed
	// merges).
	baseIdx := -1
	for i, a := range archs {
		if a == machine.Baseline {
			baseIdx = i
			break
		}
	}
	preBaselineRuns := ev.Compilations.Load()
	for _, b := range e.Benchmarks {
		var baseTime float64
		if baseIdx >= 0 {
			baseTime = res.Eval[b.Name][baseIdx].Time
		} else {
			bev := ev.EvaluateCtx(ctx, b, machine.Baseline)
			if bev.Cancelled {
				return nil, cancelledErr(ctx)
			}
			baseTime = bev.Time
		}
		if baseTime <= 0 {
			return nil, fmt.Errorf("dse: baseline failed on %s", b.Name)
		}
		evs := res.Eval[b.Name]
		for i := range evs {
			if !evs[i].Failed && evs[i].Time > 0 {
				evs[i].Speedup = baseTime / evs[i].Time
			}
		}
	}

	wall := time.Since(start)
	runs := ev.Compilations.Load()
	compileTime, simTime := ev.PhaseTimes()
	res.Stats = Stats{
		Runs:          runs,
		Architectures: len(archs),
		DesignPoints:  len(machine.DesignSpace()),
		Benchmarks:    len(e.Benchmarks),
		WallTime:      wall,
		Failures:      failed.Load(),
		Cancelled:     cancelled.Load(),
		BaselineRuns:  runs - preBaselineRuns,
		Phases: PhaseTimes{
			Compile:   compileTime,
			Simulate:  simTime,
			CostModel: costTime,
		},
	}
	if len(archs) > 0 {
		res.Stats.PerArch = wall / time.Duration(len(archs))
	}
	if runs > 0 {
		res.Stats.PerRun = wall / time.Duration(runs)
	}
	if obs.Enabled() && wall > 0 {
		obs.SetGauge("dse.compiles_per_sec", float64(runs)/wall.Seconds())
		obs.SetGauge("dse.evals_per_sec", float64(total)/wall.Seconds())
		obs.GetCounter("dse.evaluations").Add(int64(total))
	}
	return res, nil
}

// ScatterPoint is one (cost, speedup) point of Figures 3/4.
type ScatterPoint struct {
	Arch    machine.Arch
	Cost    float64
	Speedup float64
	Best    bool // on the best cost/performance frontier
}

// Scatter builds the Figure 3/4 data for one benchmark: each design
// point appears once with its best cluster arrangement (the paper:
// "after the best cluster arrangement had been selected"), and the
// Pareto frontier of best cost/performance alternatives is marked.
func (r *Results) Scatter(benchName string) []ScatterPoint {
	evs, ok := r.Eval[benchName]
	if !ok {
		return nil
	}
	// Group by unclustered design point; keep the best-speedup cluster
	// arrangement. The op set is part of the design point (it changes
	// the datapath, and the cost), so op-enabled variants chart as their
	// own points rather than collapsing into their 6-tuple base.
	type key struct {
		a, m, reg, p2, l2 int
		ops               string
	}
	best := map[key]int{}
	for i, ev := range evs {
		if ev.Failed {
			continue
		}
		k := key{ev.Arch.ALUs, ev.Arch.MULs, ev.Arch.Regs, ev.Arch.L2Ports, ev.Arch.L2Lat, ev.Arch.Ops.Key()}
		if j, ok := best[k]; !ok || ev.Speedup > evs[j].Speedup {
			best[k] = i
		}
	}
	var pts []ScatterPoint
	for _, i := range best {
		pts = append(pts, ScatterPoint{
			Arch:    evs[i].Arch,
			Cost:    r.Cost[i],
			Speedup: evs[i].Speedup,
		})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Cost != pts[j].Cost {
			return pts[i].Cost < pts[j].Cost
		}
		return pts[i].Speedup > pts[j].Speedup
	})
	// Pareto frontier: increasing cost must strictly improve speedup.
	bestSu := 0.0
	for i := range pts {
		if pts[i].Speedup > bestSu {
			pts[i].Best = true
			bestSu = pts[i].Speedup
		}
	}
	return pts
}
