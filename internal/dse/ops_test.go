package dse

import (
	"reflect"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

func testOpSet(t *testing.T) *machine.OpSet {
	t.Helper()
	ev := NewEvaluator()
	ev.Width = 48
	set, err := ev.AutoOps([]*bench.Benchmark{bench.ByName("A"), bench.ByName("H")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set == nil {
		t.Fatal("auto-mining A and H produced no op set")
	}
	return set
}

// TestOpSigSeparation pins the sharing boundary: an op-enabled
// architecture must never share a signature class — and therefore never
// share evaluation-cache entries — with its op-free
// base, or with the same base under a different mask.
func TestOpSigSeparation(t *testing.T) {
	set := testOpSet(t)
	base := machine.Baseline
	full := base.WithOps(set, set.FullMask())
	one := base.WithOps(set, 1)
	if SigKey(base) == SigKey(full) {
		t.Errorf("op-enabled arch shares SigKey %q with its op-free base", SigKey(base))
	}
	if SigKey(full) == SigKey(one) {
		t.Errorf("different masks share SigKey %q", SigKey(full))
	}
	if SigKey(base) != SigKey(base.WithOps(set, 0)) {
		t.Error("mask 0 must be identical to no ops at all")
	}
}

// TestOpsResultsRoundTrip pins the persisted schema: an op-aware
// exploration's results survive JSON encode/decode with the shared
// catalog and every mask intact, and evaluations preserved exactly.
func TestOpsResultsRoundTrip(t *testing.T) {
	set := testOpSet(t)
	archs := machine.CrossOps(
		[]machine.Arch{machine.Baseline, {ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 1}},
		set, machine.DefaultMasks(set))
	e := NewExplorer()
	e.Archs = archs
	e.Width = 48
	e.Benchmarks = []*bench.Benchmark{bench.ByName("A")}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Archs, res.Archs) {
		t.Fatalf("archs diverge after round trip:\n got %v\nwant %v", back.Archs, res.Archs)
	}
	if !reflect.DeepEqual(back.Eval, res.Eval) {
		t.Fatal("evaluations diverge after round trip")
	}
	// The interned catalog must come back as the identical pointer, so
	// decoded archs stay ==-comparable with locally built ones.
	for i, a := range back.Archs {
		if !a.Ops.Empty() && a.Ops.Set != set {
			t.Fatalf("arch %d decoded a distinct catalog instance", i)
		}
	}
}

// TestOpFreeResultsBytesUnchanged pins the wire/file compatibility
// satellite: results without op-enabled architectures encode without
// any op fields at all.
func TestOpFreeResultsBytesUnchanged(t *testing.T) {
	e := NewExplorer()
	e.Archs = []machine.Arch{machine.Baseline}
	e.Width = 48
	e.Benchmarks = []*bench.Benchmark{bench.ByName("G")}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"ops"`) {
		t.Fatalf("op-free results leak an \"ops\" field into the persisted schema:\n%s", data)
	}
}

// TestConcurrentOpAwareExploration runs an op-crossed grid through the
// parallel explorer with a live evaluation cache — the concurrency
// surface the race target exercises. Beyond not racing, the parallel
// result must equal a serial run's.
func TestConcurrentOpAwareExploration(t *testing.T) {
	set := testOpSet(t)
	grid := machine.CrossOps(
		[]machine.Arch{
			machine.Baseline,
			{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 1},
			{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2},
		},
		set, machine.DefaultMasks(set))
	benches := []*bench.Benchmark{bench.ByName("A"), bench.ByName("H")}

	cache, err := evcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	par := NewExplorer()
	par.Archs = grid
	par.Width = 48
	par.Benchmarks = benches
	par.Workers = 4
	par.Cache = cache
	pres, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}

	ser := NewExplorer()
	ser.Archs = grid
	ser.Width = 48
	ser.Benchmarks = benches
	ser.Workers = 1
	sres, err := ser.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		p, s := pres.Eval[b.Name], sres.Eval[b.Name]
		if len(p) != len(s) {
			t.Fatalf("%s: %d vs %d evaluations", b.Name, len(p), len(s))
		}
		for i := range s {
			if p[i].Cycles != s[i].Cycles || p[i].Unroll != s[i].Unroll || p[i].Spilled != s[i].Spilled {
				t.Errorf("%s on %v: parallel (u=%d cyc=%d) vs serial (u=%d cyc=%d)",
					b.Name, s[i].Arch, p[i].Unroll, p[i].Cycles, s[i].Unroll, s[i].Cycles)
			}
		}
	}
}
