package dse

import (
	"flag"
	"math"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/search"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_fullspace.json from the current code")

const goldenPath = "testdata/golden_fullspace.json"

// goldenExplorer reproduces the configuration the golden artifact was
// captured with: the full concrete space on the three benchmarks the
// paper tables share, at the fast 48-pixel reference width.
func goldenExplorer() *Explorer {
	e := NewExplorer()
	e.Archs = machine.FullSpace()
	e.Width = 48
	e.Benchmarks = nil
	for _, n := range []string{"G", "F", "DH"} {
		e.Benchmarks = append(e.Benchmarks, bench.ByName(n))
	}
	return e
}

// TestGoldenFullSpaceEquivalence pins the exploration's numbers to a
// snapshot taken before any of the performance layers (shared
// skeletons, signature-class sharing, scratch reuse, the persistent
// evaluation cache, bound-guided pruning) existed. Every layer must be
// invisible in the Results. The test runs the full space three ways:
//
//  1. cold persistent cache (first run fills it, one compute per
//     signature class),
//  2. warm persistent cache (second run over the same directory, which
//     must be a 100% hit rate and still bit-identical),
//  3. bound-pruned cost-capped search over the warm evaluator, which
//     must find the exact unpruned optimum while pruning candidates.
//
// Identical means: same Unroll, Cycles, Spilled and Failed per
// (benchmark, architecture), Speedup/Time equal up to float noise, and
// the same logical run count (cache hits re-count the stored sweep, so
// Table 3 accounting is unchanged).
//
// Regenerate after an intentional behavior change with:
//
//	go test ./internal/dse/ -run TestGoldenFullSpace -update
func TestGoldenFullSpaceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the full 762-arch space")
	}
	if raceEnabled {
		t.Skip("full-space exploration is minutes-slow under the race detector")
	}
	dir := t.TempDir()

	// --- Pass 1: cold cache ---
	cold, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := goldenExplorer()
	e.Cache = cold
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := res.Save(goldenPath); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d archs, %d runs)", goldenPath, len(res.Archs), res.Stats.Runs)
		return
	}
	want, err := Load(goldenPath)
	if err != nil {
		t.Fatalf("loading golden: %v", err)
	}
	compareToGolden(t, "cold-cache", res, want)
	// The cache is the run's only result store: exactly one compute per
	// (benchmark, signature class) in the grid, and every other
	// evaluation served by a stored or in-flight sweep.
	classes := map[string]bool{}
	for _, b := range res.Benches {
		for _, a := range res.Archs {
			classes[b+" "+SigKey(a)] = true
		}
	}
	nClasses := int64(len(classes))
	evals := int64(len(res.Benches) * len(res.Archs))
	if st := cold.Stats(); st.Computes != nClasses || st.Misses != nClasses ||
		st.Hits+st.Coalesced != evals-nClasses {
		t.Errorf("cold cache stats %+v: want Computes == Misses == %d classes and Hits+Coalesced == %d of %d evaluations",
			st, nClasses, evals-nClasses, evals)
	}
	if err := cold.Close(); err != nil {
		t.Fatalf("flushing cache: %v", err)
	}

	// --- Pass 2: warm cache, fresh process state ---
	col := obs.NewCollector()
	obs.Install(col)
	warm, err := evcache.Open(dir)
	if err != nil {
		obs.Install(nil)
		t.Fatal(err)
	}
	e2 := goldenExplorer()
	e2.Cache = warm
	res2, err := e2.Run()
	obs.Install(nil)
	if err != nil {
		t.Fatal(err)
	}
	compareToGolden(t, "warm-cache", res2, want)
	st := warm.Stats()
	if st.Misses != 0 {
		t.Errorf("warm run missed %d times: not a 100%% hit rate", st.Misses)
	}
	if st.Hits == 0 {
		t.Error("warm run recorded no cache hits")
	}
	if v := col.Counter("evcache.hits").Value(); v != st.Hits || v == 0 {
		t.Errorf("evcache.hits counter %d, cache reports %d hits", v, st.Hits)
	}
	if v := col.Counter("evcache.misses").Value(); v != 0 {
		t.Errorf("evcache.misses counter %d on a fully warm run", v)
	}

	// --- Pass 3: bound-pruned cost-capped search, exact optimum ---
	t.Run("PrunedCostCappedSearch", func(t *testing.T) {
		ev := NewEvaluator()
		ev.Width = 48
		ev.Cache = warm
		b := bench.ByName("G")
		baseline := ev.Evaluate(b, machine.Baseline)
		if baseline.Failed {
			t.Fatal("baseline evaluation failed")
		}
		cost := machine.DefaultCostModel
		const costCap = 10.0
		obj := func(a machine.Arch) float64 {
			if cost.Cost(a) > costCap {
				return math.Inf(-1)
			}
			evl := ev.Evaluate(b, a)
			if evl.Failed {
				return math.Inf(-1)
			}
			return baseline.Time / evl.Time
		}
		pcol := obs.NewCollector()
		obs.Install(pcol)
		defer obs.Install(nil)
		space := res2.Archs
		plain := search.Exhaustive(space, obj)
		bounded := search.ExhaustiveBounded(space, obj, ev.SpeedupBound(b, baseline.Time, cost, costCap))
		if bounded.Best != plain.Best || bounded.BestScore != plain.BestScore {
			t.Errorf("pruned selector found (%v, %g), exhaustive found (%v, %g)",
				bounded.Best, bounded.BestScore, plain.Best, plain.BestScore)
		}
		if bounded.Pruned == 0 {
			t.Error("cost-capped selector pruned nothing over the full space")
		}
		if v := pcol.Counter("search.pruned").Value(); int(v) != bounded.Pruned {
			t.Errorf("search.pruned counter %d, result reports %d", v, bounded.Pruned)
		}
	})
}

// compareToGolden asserts res matches the golden snapshot exactly (see
// TestGoldenFullSpaceEquivalence for what exactly means).
func compareToGolden(t *testing.T, pass string, res, want *Results) {
	t.Helper()
	if len(res.Archs) != len(want.Archs) {
		t.Fatalf("%s: arch count %d, golden has %d", pass, len(res.Archs), len(want.Archs))
	}
	for i := range want.Archs {
		if res.Archs[i] != want.Archs[i] {
			t.Fatalf("%s: arch %d is %v, golden has %v (space enumeration changed?)", pass, i, res.Archs[i], want.Archs[i])
		}
	}
	if len(res.Benches) != len(want.Benches) {
		t.Fatalf("%s: bench lists differ: %v vs golden %v", pass, res.Benches, want.Benches)
	}
	mismatches := 0
	for bi, b := range want.Benches {
		if res.Benches[bi] != b {
			t.Fatalf("%s: bench %d is %s, golden has %s", pass, bi, res.Benches[bi], b)
		}
		got, wnt := res.Eval[b], want.Eval[b]
		if len(got) != len(wnt) {
			t.Fatalf("%s: %s: %d evaluations, golden has %d", pass, b, len(got), len(wnt))
		}
		for i := range wnt {
			g, w := got[i], wnt[i]
			if g.Unroll != w.Unroll || g.Cycles != w.Cycles || g.Spilled != w.Spilled || g.Failed != w.Failed {
				if mismatches < 10 {
					t.Errorf("%s: %s on %v: got (u=%d cyc=%d spill=%d fail=%v), golden (u=%d cyc=%d spill=%d fail=%v)",
						pass, b, w.Arch, g.Unroll, g.Cycles, g.Spilled, g.Failed, w.Unroll, w.Cycles, w.Spilled, w.Failed)
				}
				mismatches++
				continue
			}
			if relDiff(g.Speedup, w.Speedup) > 1e-12 || relDiff(g.Time, w.Time) > 1e-12 {
				if mismatches < 10 {
					t.Errorf("%s: %s on %v: speedup %.15g / time %.15g, golden %.15g / %.15g",
						pass, b, w.Arch, g.Speedup, g.Time, w.Speedup, w.Time)
				}
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%s: %d evaluations diverge from the golden snapshot", pass, mismatches)
	}
	if res.Stats.Runs != want.Stats.Runs {
		t.Errorf("%s: logical run count %d, golden has %d (cache accounting must preserve Table 3)",
			pass, res.Stats.Runs, want.Stats.Runs)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}
