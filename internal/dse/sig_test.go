package dse

import (
	"context"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

// TestSignatureClassesCompileIdentically is the property behind sharing
// one stored sweep per signature class: the uncached sweep of every
// architecture in the full space must equal its signature class
// representative's — same chosen unroll, static cycles, spill count and
// failure status — and the cycle-time derates must agree, so a shared
// Evaluation (including Time) is exact, not approximate.
func TestSignatureClassesCompileIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full 762-arch space")
	}
	if raceEnabled {
		t.Skip("full-space compilation is minutes-slow under the race detector")
	}
	ev := NewEvaluator()
	ev.Width = 48
	b := bench.ByName("G")
	ctx := context.Background()
	reps := map[archSig]evcache.Entry{}
	repArch := map[archSig]machine.Arch{}
	dupes := 0
	for _, a := range machine.FullSpace() {
		sig := sigOf(a)
		got, err := ev.runSweep(ctx, nil, b, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := reps[sig]
		if !ok {
			reps[sig] = got
			repArch[sig] = a
			continue
		}
		dupes++
		if got.Unroll != rep.Unroll || got.Cycles != rep.Cycles ||
			got.Spilled != rep.Spilled || got.Failed != rep.Failed {
			t.Errorf("%v compiles differently from its class representative %v: (u=%d cyc=%d spill=%d fail=%v) vs (u=%d cyc=%d spill=%d fail=%v)",
				a, repArch[sig], got.Unroll, got.Cycles, got.Spilled, got.Failed,
				rep.Unroll, rep.Cycles, rep.Spilled, rep.Failed)
		}
		if d1, d2 := ev.Cycle.Derate(a), ev.Cycle.Derate(repArch[sig]); d1 != d2 {
			t.Errorf("%v derate %.15g differs from representative %v derate %.15g",
				a, d1, repArch[sig], d2)
		}
	}
	if dupes == 0 {
		t.Fatal("full space has no signature-isomorphic arrangements; class sharing is untestable")
	}
	t.Logf("%d signature classes cover %d architectures (%d shared)",
		len(reps), len(machine.FullSpace()), dupes)
}

// TestMemoMatchesDirectCompile checks class sharing end to end on a
// known signature-isomorphic pair: 2 MULs vs 4 MULs across 4 clusters
// both floor to MULsPC=1, so the backend cannot tell them apart. An
// evaluator with no persistent cache attached must compile the pair
// once, return exactly what the uncached sweep computes for each, and
// count the hit's logical runs.
func TestMemoMatchesDirectCompile(t *testing.T) {
	a1 := machine.Arch{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4}
	a2 := machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 4}
	if sigOf(a1) != sigOf(a2) {
		t.Fatalf("test premise broken: %v and %v have different signatures", a1, a2)
	}
	b := bench.ByName("G")

	ev := NewEvaluator()
	ev.Width = 48
	m1 := ev.Evaluate(b, a1)
	runsAfterMiss := ev.Compilations.Load()
	m2 := ev.Evaluate(b, a2)
	runsAfterHit := ev.Compilations.Load()
	if st := ev.Cache.Stats(); st.Computes != 1 || st.Hits != 1 {
		t.Errorf("isomorphic pair: store stats %+v, want 1 compute and 1 hit", st)
	}

	direct := NewEvaluator()
	direct.Width = 48
	for _, c := range []struct {
		arch machine.Arch
		got  Evaluation
	}{{a1, m1}, {a2, m2}} {
		sw, err := direct.runSweep(context.Background(), nil, b, c.arch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g := c.got; g.Unroll != sw.Unroll || g.Cycles != sw.Cycles || g.Spilled != sw.Spilled ||
			g.Failed != sw.Failed || g.Time != float64(sw.Cycles)*direct.Cycle.Derate(c.arch) {
			t.Errorf("stored %v = %+v, uncached sweep = %+v", c.arch, g, sw)
		}
	}
	// The hit must re-count the stored sweep's runs (logical Table 3
	// accounting), doubling the counter rather than leaving it flat.
	if runsAfterHit != 2*runsAfterMiss {
		t.Errorf("Compilations after hit = %d, want %d (logical re-count of the %d-run sweep)",
			runsAfterHit, 2*runsAfterMiss, runsAfterMiss)
	}
}
