package dse

import (
	"context"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/sched"
)

// exploreBenchArchs is the exploration benchmarks' architecture subset:
// the clustered, signature-dense region of the full space (8- and
// 16-ALU machines with large register files), which is where the
// backend spends most of its time on a real full-space run and where
// cluster arrangements collapse onto shared backend signatures.
func exploreBenchArchs() []machine.Arch {
	var out []machine.Arch
	for _, a := range machine.FullSpace() {
		if a.ALUs >= 8 && a.Regs >= 256 && a.L2Lat != 8 {
			out = append(out, a)
		}
	}
	return out
}

// BenchmarkEvaluate measures the per-evaluation backend cost (unroll
// sweep, partition, schedule, allocate) with the prepared-IR cache warm,
// cycling through distinct architectures so every iteration performs
// real backend work. It runs the uncached sweep through the cold
// CompilePrepared driver, so the number is an honest cold per-compile
// cost — the baseline BenchmarkEvaluateDelta is measured against — and
// a reused Scratch arena matches the explorer worker's steady state.
func BenchmarkEvaluate(b *testing.B) {
	ev := NewEvaluator()
	ev.Width = 48
	ev.compile = sched.CompilePrepared
	bm := bench.ByName("G")
	archs := exploreBenchArchs()
	for _, u := range UnrollFactors {
		ev.prepare(nil, bm, u)
	}
	sc := sched.NewScratch()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.runSweep(ctx, nil, bm, archs[i%len(archs)], sc)
	}
}

// BenchmarkEvaluateDelta measures the steady-state neighbor
// re-evaluation path the stochastic search strategies sit on: the
// uncached sweep through delta compilation, caches warm, cycling
// through a one-parameter neighbor ring so every iteration is the kind
// of move hill climbing and annealing generate. Compare against
// BenchmarkEvaluate (the cold full driver) for the delta speedup.
func BenchmarkEvaluateDelta(b *testing.B) {
	ev := NewEvaluator()
	ev.Width = 48
	bm := bench.ByName("G")
	ring := deltaNeighborRing()
	for _, u := range UnrollFactors {
		ev.prepare(nil, bm, u)
	}
	sc := sched.NewScratch()
	ctx := context.Background()
	for r := 0; r < 2; r++ {
		for _, a := range ring {
			ev.runSweep(ctx, nil, bm, a, sc)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.runSweep(ctx, nil, bm, ring[i%len(ring)], sc)
	}
}

// BenchmarkEvaluateWarmCache measures the persistent-cache hit path as
// a fresh process would see it: a new evaluator per iteration (so the
// kernel-class hash is recomputed) resolving evaluations from a shared
// warm cache.
func BenchmarkEvaluateWarmCache(b *testing.B) {
	cache, err := evcache.Open("")
	if err != nil {
		b.Fatal(err)
	}
	bm := bench.ByName("G")
	archs := exploreBenchArchs()
	warmer := NewEvaluator()
	warmer.Width = 48
	warmer.Cache = cache
	for _, a := range archs {
		warmer.Evaluate(bm, a)
	}
	if cache.Stats().Misses == 0 {
		b.Fatal("cache never filled")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewEvaluator()
		ev.Width = 48
		ev.Cache = cache
		evl := ev.Evaluate(bm, archs[i%len(archs)])
		if evl.Failed && evl.Cycles != 0 {
			b.Fatal("inconsistent cached evaluation")
		}
	}
}

// BenchmarkExploreOpsSubset is BenchmarkExploreSubset's op-aware twin:
// the same subspace crossed with a fixed two-op catalog (the paper's
// MAC plus an add-add chain), so every iteration pays the pattern
// rewrite, the custom-unit scheduling path, and the doubled grid. The
// catalog is pinned rather than mined so the measurement tracks the
// explorer, not the miner.
func BenchmarkExploreOpsSubset(b *testing.B) {
	set, err := machine.ParseOpCatalog([]string{
		"mac/3/2:mul $0 $1;add %0 $2",
		"add_add/3/1:add $0 $1;add %0 $2",
	})
	if err != nil {
		b.Fatal(err)
	}
	archs := machine.CrossOps(exploreBenchArchs(), set, machine.DefaultMasks(set))
	benches := []*bench.Benchmark{bench.ByName("G")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExplorer()
		e.Archs = archs
		e.Width = 48
		e.Benchmarks = benches
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(archs)*len(benches)), "evals")
			b.ReportMetric(float64(res.Stats.Runs), "runs")
		}
	}
}

// BenchmarkExploreSubset measures end-to-end exploration wall time over
// a fixed subspace, including prepare, the cross-architecture caching
// layers, and speedup post-processing — the number trajectory tracked
// across PRs in BENCH_explore.json.
func BenchmarkExploreSubset(b *testing.B) {
	archs := exploreBenchArchs()
	benches := []*bench.Benchmark{bench.ByName("G")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExplorer()
		e.Archs = archs
		e.Width = 48
		e.Benchmarks = benches
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(archs)*len(benches)), "evals")
			b.ReportMetric(float64(res.Stats.Runs), "runs")
		}
	}
}
