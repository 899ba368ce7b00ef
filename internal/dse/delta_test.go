package dse

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/sched"
	"customfit/internal/search"
)

// TestDeltaNeighborWalksBitIdentical is the delta-compilation property
// test: random neighbor walks — the exact move set the stochastic
// search strategies use (search.Neighbors) — swept through delta
// compilation must be bit-identical to a fresh sweep through the cold
// full driver at every visited architecture. Two walkers per kernel share one
// delta-enabled evaluator, so under -race this also exercises
// concurrent access to the per-kernel delta caches (block-schedule
// ring, allocation memo, partition-class state construction).
func TestDeltaNeighborWalksBitIdentical(t *testing.T) {
	space := machine.FullSpace()
	inSpace := make(map[machine.Arch]bool, len(space))
	for _, a := range space {
		inSpace[a] = true
	}

	// Both sides run the uncached sweep so every step compares real
	// compiles: the delta path on one side, the full driver on the
	// other.
	delta := NewEvaluator()
	delta.Width = 32
	fresh := NewEvaluator()
	fresh.Width = 32
	fresh.compile = sched.CompilePrepared
	ctx := context.Background()

	// Full kernel sweep with long walks normally; under the race
	// detector (or -short) shrink to two kernels and shorter walks. The
	// delta caches are per-kernel, so race coverage needs concurrent
	// walkers on a shared kernel — not the whole suite — and race
	// instrumentation makes compiles minutes-slow.
	kernels := bench.All()
	steps := 6
	if raceEnabled || testing.Short() {
		kernels = kernels[:2]
		steps = 2
	}
	const walkers = 2

	var wg sync.WaitGroup
	errs := make(chan error, len(kernels)*walkers)
	for bi, bm := range kernels {
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(bm *bench.Benchmark, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				cur := space[rng.Intn(len(space))]
				sc := sched.NewScratch()
				for s := 0; s < steps; s++ {
					got, gerr := delta.runSweep(ctx, nil, bm, cur, sc)
					want, werr := fresh.runSweep(ctx, nil, bm, cur, nil)
					if gerr != nil || werr != nil {
						errs <- fmt.Errorf("%s step %d: sweep errors %v, %v", bm.Name, s, gerr, werr)
						return
					}
					if got != want {
						errs <- fmt.Errorf("%s step %d arch %+v: delta %+v != fresh %+v",
							bm.Name, s, cur, got, want)
						return
					}
					ns := search.Neighbors(cur, inSpace)
					if len(ns) == 0 {
						break
					}
					cur = ns[rng.Intn(len(ns))]
				}
			}(bm, int64(1000*bi+w))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// deltaNeighborRing is a one-parameter neighbor ring around a midsize
// single-cluster machine: each member differs from the base in exactly
// one template parameter, the move shape stochastic search produces.
// Shared by the steady-state allocation pin and BenchmarkEvaluateDelta.
func deltaNeighborRing() []machine.Arch {
	base := machine.Arch{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 1}
	ring := []machine.Arch{base, base, base, base, base}
	ring[1].Regs = 512
	ring[2].L2Lat = 2
	ring[3].L2Ports = 1
	ring[4].MULs = 4
	return ring
}

// TestDeltaSteadyStateAllocs pins the steady-state allocation count of
// delta-compiled neighbor re-evaluation: once the per-kernel caches are
// warm, cycling through a one-parameter neighbor ring must run
// allocation-free apart from small constant bookkeeping — the arenas in
// sched.Scratch and regalloc.Scratch absorb everything sized by the
// kernel or the architecture.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation accounting")
	}
	ev := NewEvaluator()
	ev.Width = 48
	bm := bench.ByName("G")
	ring := deltaNeighborRing()
	sc := sched.NewScratch()
	ctx := context.Background()
	for r := 0; r < 2; r++ {
		for _, a := range ring {
			if got, err := ev.runSweep(ctx, nil, bm, a, sc); err != nil || got.Failed {
				t.Fatalf("warmup compile failed for %+v", a)
			}
		}
	}
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		ev.runSweep(ctx, nil, bm, ring[i%len(ring)], sc)
		i++
	})
	// Budget with headroom over the measured steady state (~0); the cold
	// full driver spends thousands of allocations per evaluation.
	if avg > 24 {
		t.Errorf("steady-state neighbor re-evaluation allocates %.1f allocs/op, want <= 24", avg)
	}
}
