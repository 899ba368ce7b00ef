package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"customfit"
	"customfit/internal/bench"
	"customfit/internal/ddg"
	"customfit/internal/dse"
	"customfit/internal/evcache"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// fixturePath is the full-space exploration the cold pass is checked
// against, relative to the repository root. It is read at run time, so
// a change that regenerates it stays consistent.
const fixturePath = "results_full.json"

const (
	// minWarm is the fewest warm re-explorations a run makes, even past
	// its deadline, so latency_p95_ms keeps at least ten samples beyond
	// it.
	minWarm = 200
	// maxTracedWarm caps the warm passes of a traced run: every span
	// stays in memory until the run ends.
	maxTracedWarm = 100
	// Reference workload of dse.NewEvaluator, which derives the cache
	// keys the evcache probe looks up.
	refWidth = 96
	refSeed  = 1
)

// fixtureEval is the part of a fixture evaluation the cold pass must
// reproduce.
type fixtureEval struct {
	Unroll  int
	Cycles  int64
	Time    float64
	Spilled int
	Failed  bool
}

// fixture indexes results_full.json by (benchmark, architecture).
type fixture map[string]fixtureEval

func fixtureKey(benchName string, a machine.Arch) string { return benchName + " " + a.String() }

func loadFixture(path string) (fixture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw struct {
		Eval map[string][]struct {
			Arch machine.Arch
			fixtureEval
		}
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fx := fixture{}
	for name, evs := range raw.Eval {
		for _, e := range evs {
			fx[fixtureKey(name, e.Arch)] = e.fixtureEval
		}
	}
	return fx, nil
}

type exploreSetup struct {
	archs    []machine.Arch
	steps    []selectStep
	fix      fixture
	cacheDir string
}

// runExplore is the architect's session: one cold exploration of the
// sample into a fresh cache directory, then warm re-explorations of
// the same sample from that directory until the run's time is up.
func runExplore(o options) (*outcome, error) {
	st, setupS, err := timedSetup(func() (*exploreSetup, error) {
		fx, err := loadFixture(fixturePath)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.outdir, "evcache-")
		if err != nil {
			return nil, err
		}
		sample := o.sample
		if sample == nil {
			sample = exploreSample(o.seed)
		}
		return &exploreSetup{sample, warmSession(o.seed), fx, dir}, nil
	}, func(s *exploreSetup) { os.RemoveAll(s.cacheDir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.cacheDir)

	out := &outcome{endToEnd: map[string]float64{"setup_s": setupS}, samples: map[string]int{}}
	var tr *tracer
	if o.trace {
		tr = startTracer("perfbench.explore")
		defer tr.stop()
	}
	opts := customfit.ExploreOptions{Benchmarks: o.benches, Archs: st.archs, Parallelism: runtime.NumCPU(), CacheDir: st.cacheDir}
	explore := func(pass string) (*customfit.Results, float64, error) {
		sp := tr.child("customfit.Explore").Str("pass", pass)
		defer sp.End()
		t0 := time.Now()
		res, err := customfit.Explore(obs.ContextWithSpan(context.Background(), sp), opts)
		return res, time.Since(t0).Seconds(), err
	}

	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	before := tr.counters()
	cold, coldS, err := explore("cold")
	if err != nil {
		return nil, fmt.Errorf("cold exploration: %w", err)
	}
	coldEvents, coldCounters := tr.mark(), tr.counters().minus(before)
	evals := int64(len(cold.Archs) * len(cold.Benches))
	failed := checkCold(out, cold, st.fix)

	// Start the warm passes from a collected heap, not from the cold
	// pass's garbage.
	runtime.GC()
	coldChoices := map[selectStep][]dse.Choice{}
	var warmMS []float64
	for len(warmMS) < minWarm || time.Now().Before(deadline) {
		if o.trace && len(warmMS) >= maxTracedWarm {
			break
		}
		res, s, err := explore("warm")
		if err != nil {
			return nil, fmt.Errorf("warm exploration %d: %w", len(warmMS), err)
		}
		warmMS = append(warmMS, 1000*s)
		if d := diffResults(cold, res); d != "" {
			out.mismatch("warm pass %d differs from the cold pass: %s", len(warmMS), d)
		}
		step := st.steps[(len(warmMS)-1)%len(st.steps)]
		want, ok := coldChoices[step]
		if !ok {
			want = cold.SelectConstrained(step.CostCap, step.Range)
			coldChoices[step] = want
		}
		if got := res.SelectConstrained(step.CostCap, step.Range); !reflect.DeepEqual(got, want) {
			out.mismatch("warm pass %d selects differently at cost cap %g, Range %g", len(warmMS), step.CostCap, step.Range)
		}
	}
	warmCounters := tr.counters().minus(before).minus(coldCounters)

	passes := int64(1 + len(warmMS))
	out.attempted = evals * passes
	out.failed = failed * passes
	var speedups []float64
	for _, evs := range cold.Eval {
		for _, e := range evs {
			if !e.Failed {
				speedups = append(speedups, e.Speedup)
			}
		}
	}
	p50, _ := percentile(warmMS, 50)
	p95, _ := percentile(warmMS, 95)
	out.endToEnd["throughput_per_s"] = float64(evals) / coldS
	out.endToEnd["latency_p50_ms"] = p50
	out.endToEnd["latency_p95_ms"] = p95
	out.endToEnd["geomean_speedup"] = geomean(speedups)
	out.endToEnd["fail_share"] = ratio(float64(failed), float64(evals))
	out.endToEnd["peak_rss_mb"] = peakRSSMB()
	out.samples["latency_p50_ms"] = len(warmMS)
	out.samples["latency_p95_ms"] = len(warmMS)
	fmt.Printf("explore: %d machines x %d benchmarks, cold pass %.2f s, %d warm passes\n",
		len(cold.Archs), len(cold.Benches), coldS, len(warmMS))

	if tr != nil {
		exploreLayers(out, tr, st, cold, coldEvents, coldCounters, warmCounters)
		out.traces = tr.write(o.outdir, "explore", o.seed)
	}
	return out, nil
}

// checkCold compares every cold evaluation with the fixture on Unroll,
// Cycles, Spilled and Failed, and returns the failed evaluations.
func checkCold(out *outcome, res *customfit.Results, fx fixture) (failed int64) {
	for _, name := range res.Benches {
		for _, e := range res.Eval[name] {
			if e.Failed {
				failed++
			}
			want, ok := fx[fixtureKey(name, e.Arch)]
			switch {
			case !ok:
				out.mismatch("%s on %s: not in %s", name, e.Arch, fixturePath)
			case e.Unroll != want.Unroll || e.Cycles != want.Cycles || e.Spilled != want.Spilled || e.Failed != want.Failed:
				out.mismatch("%s on %s: unroll %d cycles %d spilled %d failed %v, fixture has %d %d %d %v",
					name, e.Arch, e.Unroll, e.Cycles, e.Spilled, e.Failed, want.Unroll, want.Cycles, want.Spilled, want.Failed)
			}
		}
	}
	return failed
}

// diffResults describes the first difference between two explorations'
// results, ignoring timing statistics ("" when equal).
func diffResults(a, b *customfit.Results) string {
	switch {
	case !reflect.DeepEqual(a.Archs, b.Archs):
		return "architectures"
	case !reflect.DeepEqual(a.Benches, b.Benches):
		return "benchmarks"
	case !reflect.DeepEqual(a.Cost, b.Cost):
		return "costs"
	case a.Stats.Runs != b.Stats.Runs || a.Stats.Failures != b.Stats.Failures:
		return fmt.Sprintf("runs %d/%d failures %d/%d", a.Stats.Runs, b.Stats.Runs, a.Stats.Failures, b.Stats.Failures)
	}
	for _, name := range a.Benches {
		x, y := a.Eval[name], b.Eval[name]
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("%s on %s", name, x[i].Arch)
			}
		}
	}
	return ""
}

// exploreLayers fills the per-layer metrics of a traced explore run
// from the session's spans and counters plus three probes of layers
// the session reaches only inside the program: dependence skeletons,
// the evaluation cache's public calls, and the bundle count of the
// Table 8-10 picks.
func exploreLayers(out *outcome, tr *tracer, st *exploreSetup, cold *customfit.Results, coldEvents int, coldC, warmC counterSet) {
	// Inputs of the probes are built with the collector detached, so
	// they add nothing to the session's ledger.
	benches := make([]*bench.Benchmark, len(cold.Benches))
	for i, name := range cold.Benches {
		benches[i] = bench.ByName(name)
	}
	prepared, instrs := prepareAll(tr, out, benches)
	m := map[string]float64{}
	probeSkeletons(tr, benches, prepared, st.archs)
	probeCache(tr, out, st, benches, cold, m)
	m["vliw.bundles"] = float64(pickBundles(tr, out, benches, prepared, cold))

	evs := tr.col.Events()
	l := newLedger(evs)
	coldL := newLedger(evs[:coldEvents])
	evalsN := float64(len(cold.Archs) * len(cold.Benches))
	m["opt.instrs_out"] = float64(instrs)
	m["ir.interp_ms"] = l.sumMS("sim.reference")
	m["ddg.skeleton_ms"] = l.sumMS("ddg.BuildSkeleton")
	m["sched.nofit"] = float64(coldC["dse.compile_nofit"])
	m["dse.evals"] = evalsN
	m["dse.compile_runs"] = float64(cold.Stats.Runs)
	m["dse.evaluate_ms"] = coldL.sumMS("evaluate")
	m["dse.memo_hit_ratio"] = ratio(float64(coldC["dse.compile_memo_hits"]), evalsN)
	m["evcache.hit_ratio"] = ratio(float64(warmC["evcache.hits"]), float64(warmC["evcache.hits"]+warmC["evcache.misses"]))
	commonLayers(m, l, coldC)
	out.perLayer = m
	out.layers = l.table("")
	out.notes = append(out.notes,
		fmt.Sprintf("memo hit ratio %.4f (%d of %.0f evaluations served by a signature class already compiled); full space 1 - 600/762 = %.4f",
			m["dse.memo_hit_ratio"], coldC["dse.compile_memo_hits"], evalsN, 1-600.0/762),
		fmt.Sprintf("spill-fallback share %.4f (%d full compiles of %d runs); full space 2196/26554 = %.4f",
			ratio(float64(coldC["sched.delta_fallbacks"]), float64(cold.Stats.Runs)), coldC["sched.delta_fallbacks"], cold.Stats.Runs, 2196.0/26554))
}

// preparedKernel is one benchmark's optimized kernel at one unroll
// factor, with its block visit counts on the reference workload.
type preparedKernel struct {
	fn     *ir.Func
	visits map[string]int64
}

// prepareAll runs the frontend, opt.Prepare and the reference run for
// every benchmark and unroll factor of the sweep, with the collector
// detached, and returns the kernels with their total instruction count.
func prepareAll(tr *tracer, out *outcome, benches []*bench.Benchmark) (map[string]map[int]preparedKernel, int) {
	tr.detach()
	defer tr.attach()
	kernels := map[string]map[int]preparedKernel{}
	instrs := 0
	for _, b := range benches {
		fn, err := b.Compile()
		if err != nil {
			out.mismatch("frontend of %s: %v", b.Name, err)
			continue
		}
		kernels[b.Name] = map[int]preparedKernel{}
		for _, u := range dse.UnrollFactors {
			g, err := opt.Prepare(fn, u)
			if err != nil {
				break // the sweep stops at the same factor
			}
			env := b.NewCase(refWidth, refSeed).Clone().Env()
			env.Visits = map[string]int64{}
			if _, err := ir.Interp(g, env); err != nil {
				out.mismatch("reference run of %s at unroll %d: %v", b.Name, u, err)
				continue
			}
			kernels[b.Name][u] = preparedKernel{g, env.Visits}
			instrs += g.NumInstrs()
		}
	}
	return kernels, instrs
}

// probeSkeletons times ddg.BuildSkeleton over every prepared kernel's
// blocks, once per L2 latency in the sample (the only architecture
// parameter a skeleton reads).
func probeSkeletons(tr *tracer, benches []*bench.Benchmark, prepared map[string]map[int]preparedKernel, archs []machine.Arch) {
	byLat := map[int]machine.Arch{}
	for _, a := range archs {
		if _, ok := byLat[a.L2Lat]; !ok {
			byLat[a.L2Lat] = a
		}
	}
	for _, b := range benches {
		for _, u := range dse.UnrollFactors {
			k, ok := prepared[b.Name][u]
			if !ok {
				continue
			}
			for _, a := range byLat {
				sp := tr.child("ddg.BuildSkeleton").Str("bench", b.Name).Int("unroll", int64(u)).Int("l2lat", int64(a.L2Lat))
				for _, blk := range k.fn.Blocks {
					ddg.BuildSkeleton(blk, a)
				}
				sp.End()
			}
		}
	}
}

// probeCache times the evaluation cache's public calls on the session's
// entries: Open of the warm directory, a Get of every (benchmark,
// machine) entry (checked against the cold pass), and Put of every
// entry into a fresh cache followed by one Flush.
func probeCache(tr *tracer, out *outcome, st *exploreSetup, benches []*bench.Benchmark, cold *customfit.Results, m map[string]float64) {
	sp := tr.child("evcache.Open")
	t0 := time.Now()
	c, err := evcache.Open(st.cacheDir)
	m["evcache.open_ms"] = 1000 * time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		out.mismatch("evcache.Open: %v", err)
		return
	}
	defer c.Close()
	dir, err := os.MkdirTemp(st.cacheDir, "probe-")
	if err != nil {
		out.mismatch("probe cache dir: %v", err)
		return
	}
	fresh, err := evcache.Open(dir)
	if err != nil {
		out.mismatch("evcache.Open: %v", err)
		return
	}
	defer fresh.Close()
	var getS, putS float64
	n := 0
	for _, b := range benches {
		kc := dse.KernelClass(b, refWidth, refSeed)
		for _, e := range cold.Eval[b.Name] {
			key := dse.CacheKey(kc, e.Arch)
			sp := tr.child("evcache.Get")
			t := time.Now()
			got, ok := c.Get(b.Name, key)
			getS += time.Since(t).Seconds()
			sp.End()
			if !ok || got.Unroll != e.Unroll || got.Cycles != e.Cycles || got.Spilled != e.Spilled || got.Failed != e.Failed {
				out.mismatch("evcache entry of %s on %s: %+v (found %v)", b.Name, e.Arch, got, ok)
				continue
			}
			sp = tr.child("evcache.Put")
			t = time.Now()
			fresh.Put(b.Name, key, got)
			putS += time.Since(t).Seconds()
			sp.End()
			n++
		}
	}
	sp = tr.child("evcache.Flush")
	t0 = time.Now()
	if err := fresh.Flush(); err != nil {
		out.mismatch("evcache.Flush: %v", err)
	}
	m["evcache.flush_ms"] = 1000 * time.Since(t0).Seconds()
	sp.End()
	m["evcache.get_us"] = 1e6 * ratio(getS, float64(n))
	m["evcache.put_us"] = 1e6 * ratio(putS, float64(n))
}

// pickBundles compiles every benchmark for each Table 8-10 pick at the
// unroll factor the cold pass chose, with the collector detached, and
// returns the total Program.BundleCount. Each program's static cycle
// count must equal the cold evaluation's.
func pickBundles(tr *tracer, out *outcome, benches []*bench.Benchmark, prepared map[string]map[int]preparedKernel, cold *customfit.Results) int {
	tr.detach()
	defer tr.attach()
	idx := map[machine.Arch]int{}
	for i, a := range cold.Archs {
		idx[a] = i
	}
	sc := sched.NewScratch()
	total := 0
	for _, t := range tablePicks {
		a := archOf(t)
		i, ok := idx[a]
		if !ok {
			continue
		}
		for _, b := range benches {
			e := cold.Eval[b.Name][i]
			k, ok := prepared[b.Name][e.Unroll]
			if e.Failed || !ok {
				continue
			}
			res, err := sched.CompilePrepared(nil, sched.NewPrepared(k.fn), a, sc)
			if err != nil {
				out.mismatch("%s on %s at unroll %d: %v", b.Name, a, e.Unroll, err)
				continue
			}
			if c := res.Prog.StaticCycles(k.visits); c != e.Cycles {
				out.mismatch("%s on %s at unroll %d: %d static cycles, the cold pass found %d", b.Name, a, e.Unroll, c, e.Cycles)
			}
			total += res.Prog.BundleCount()
		}
	}
	return total
}
