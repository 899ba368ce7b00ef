package main

import (
	"os"
	"reflect"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 5, 5}, {95, 10, 0}, {90, 9, 1}, {10, 1, 9}, {100, 10, 0}, {1, 1, 9},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.want, c.beyond)
		}
	}
	if v, b := percentile([]float64{2, 2, 2, 7}, 50); v != 2 || b != 1 {
		t.Errorf("ties: got %v (%d beyond), want 2 (1 beyond)", v, b)
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty: got %v, %d", v, b)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}) {
		t.Error("percentile reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := exploreSample(7), exploreSample(7); !reflect.DeepEqual(a, b) {
		t.Error("exploreSample(7) differs between calls")
	}
	if a, b := warmSession(7), warmSession(7); !reflect.DeepEqual(a, b) {
		t.Error("warmSession(7) differs between calls")
	}
	s1, s2 := newJobStream(7), newJobStream(7)
	other := newJobStream(8)
	differs := false
	for i := 0; i < 3*len(s1.deck); i++ {
		j := s1.job(i)
		if j != s2.job(i) {
			t.Fatalf("job %d differs between two streams of seed 7", i)
		}
		if j != other.job(i) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 give the same job stream")
	}
}

// TestExploreSample checks the sample's fixed composition: the same
// machines for every seed (only the order moves), every cluster
// arrangement of a sampled design point, and the always-included
// machines.
func TestExploreSample(t *testing.T) {
	a, b := exploreSample(1), exploreSample(2)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 list the machines in the same order")
	}
	set := map[machine.Arch]bool{}
	for _, m := range a {
		set[m] = true
	}
	for _, m := range b {
		if !set[m] {
			t.Errorf("seed 2 samples %v, seed 1 does not", m)
		}
	}
	if len(a) != len(b) || len(a) != len(set) {
		t.Errorf("sample sizes %d and %d with %d distinct machines", len(a), len(b), len(set))
	}
	must := append([]machine.Arch{machine.Baseline}, defectMachines...)
	for _, p := range tablePicks {
		must = append(must, archOf(p))
	}
	for _, m := range must {
		if !set[m] {
			t.Errorf("sample lacks %v", m)
		}
	}
	points := machine.DesignSpace()
	for i := 0; i < len(points); i += sampleStride {
		for _, c := range machine.ClusterArrangements(points[i]) {
			if m := points[i].WithClusters(c); !set[m] {
				t.Errorf("sample lacks arrangement %v of a sampled design point", m)
			}
		}
	}
}

func TestJobDeck(t *testing.T) {
	deck := jobDeck()
	defects, compiles := 0, 0
	for _, j := range deck {
		if err := j.Arch.Validate(); err != nil {
			t.Fatalf("deck job %+v: %v", j, err)
		}
		if bench.ByName(j.Bench) == nil || (j.Unroll != 1 && j.Unroll != 2) {
			t.Fatalf("deck job %+v", j)
		}
		if j.Bench == "A" && j.Unroll == 1 && (j.Arch == defectMachines[0] || j.Arch == defectMachines[1]) {
			defects++
		}
		if j.Kind == "compile" {
			compiles++
		}
	}
	if defects == 0 {
		t.Error("the deck has no known-defect job")
	}
	if want := len(deck) / 5; compiles < want-defects || compiles > want+defects {
		t.Errorf("%d compile jobs of %d", compiles, len(deck))
	}
	// Each pass of the stream is a permutation of the deck.
	s := newJobStream(3)
	count := map[jobSpec]int{}
	for _, j := range deck {
		count[j]++
	}
	for i := len(deck); i < 2*len(deck); i++ {
		j := s.job(i)
		j.Seed = 0
		count[j]--
	}
	for j, n := range count {
		if n != 0 {
			t.Fatalf("pass 1 of the stream has %+v %d times too few", j, n)
		}
	}
}

func TestCompareRefusesOtherEnvironment(t *testing.T) {
	a := report{Env: currentEnv(), Workload: "explore"}
	b := a
	if code := compareReports(a, b); code != 0 {
		t.Errorf("same stamps: exit %d", code)
	}
	b.Env.GOMAXPROCS++
	if code := compareReports(a, b); code == 0 {
		t.Error("compared result sets with different GOMAXPROCS")
	}
}

// TestDeterministicCounts runs a small traced explore session twice:
// the numbers that depend only on the inputs must repeat exactly, the
// outputs must check, and the known failure of kernel A at unroll 1
// must show in fail_share.
func TestDeterministicCounts(t *testing.T) {
	// The fixture path is relative to the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	o := options{
		workload: "explore", seed: 5, seconds: 1, trace: true, outdir: t.TempDir(),
		sample:  []machine.Arch{machine.Baseline, defectMachines[0], archOf(tablePicks[0]), archOf(tablePicks[5])},
		benches: []*bench.Benchmark{bench.ByName("A"), bench.ByName("C"), bench.ByName("G")},
	}
	var first *outcome
	for run := 0; run < 2; run++ {
		out, err := runExplore(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.mismatches) > 0 {
			t.Fatalf("mismatches: %v", out.mismatches)
		}
		if out.endToEnd["fail_share"] <= 0 {
			t.Error("fail_share is zero; kernel A fails at unroll 1 on the defect machine")
		}
		if first == nil {
			first = out
			continue
		}
		for _, name := range []string{"geomean_speedup", "fail_share"} {
			if a, b := first.endToEnd[name], out.endToEnd[name]; a != b {
				t.Errorf("%s: %v then %v", name, a, b)
			}
		}
		for _, name := range []string{"dse.evals", "dse.compile_runs", "sched.spill_rounds", "sched.nofit", "vliw.bundles", "opt.instrs_out", "cc.calls"} {
			if a, b := first.perLayer[name], out.perLayer[name]; a != b {
				t.Errorf("%s: %v then %v", name, a, b)
			}
		}
	}
}
