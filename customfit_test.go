package customfit_test

import (
	"context"
	"errors"
	"testing"

	"customfit"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	k, err := customfit.ParseKernel(`
		kernel negate(int in[], int out[], int n) {
			int i;
			for (i = 0; i < n; i++) { out[i] = 0 - in[i]; }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.Compile(customfit.Baseline, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := []int32{3, -4, 5}
	out := make([]int32, 3)
	st, err := c.Run([]int32{3}, map[string][]int32{"in": in, "out": out})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		if out[i] != -v {
			t.Errorf("out[%d] = %d, want %d", i, out[i], -v)
		}
	}
	if st.Cycles <= 0 {
		t.Error("no cycles reported")
	}
}

func TestPublicAPIModelsAndSpaces(t *testing.T) {
	if c := customfit.Cost(customfit.Baseline); c != 1 {
		t.Errorf("baseline cost = %f", c)
	}
	if d := customfit.CycleDerate(customfit.Baseline); d != 1 {
		t.Errorf("baseline derate = %f", d)
	}
	if n := len(customfit.DesignSpace()); n != 234 {
		t.Errorf("design space = %d points", n)
	}
	if len(customfit.FullSpace()) <= len(customfit.DesignSpace()) {
		t.Error("full space should add cluster arrangements")
	}
	if customfit.BenchmarkByName("A") == nil || len(customfit.Benchmarks()) != 11 {
		t.Error("benchmark registry broken through the facade")
	}
}

func TestPublicAPIFitContextArchs(t *testing.T) {
	space := []customfit.Arch{
		customfit.Baseline,
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2},
	}
	fit, err := customfit.FitContext(context.Background(), customfit.FitOptions{
		Benchmarks: []*customfit.Benchmark{customfit.BenchmarkByName("G")},
		CostCap:    5,
		Archs:      space,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Cost > 5 {
		t.Errorf("fit over budget: %f", fit.Cost)
	}
	if fit.Results == nil || fit.Speedups["G"] <= 0 {
		t.Error("fit result incomplete")
	}
}

func smallSpace() []customfit.Arch {
	return []customfit.Arch{
		customfit.Baseline,
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2},
		{ALUs: 8, MULs: 2, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2},
	}
}

func TestPublicAPIExplore(t *testing.T) {
	res, err := customfit.Explore(context.Background(), customfit.ExploreOptions{
		Benchmarks: []*customfit.Benchmark{customfit.BenchmarkByName("G")},
		Archs:      smallSpace(),
		Width:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Archs) != 3 || len(res.Eval["G"]) != 3 {
		t.Fatalf("unexpected result shape: %d archs", len(res.Archs))
	}
	for _, ev := range res.Eval["G"] {
		if ev.Failed || ev.Speedup <= 0 {
			t.Errorf("evaluation failed on %v", ev.Arch)
		}
	}
}

func TestPublicAPIExploreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := customfit.Explore(ctx, customfit.ExploreOptions{
		Benchmarks: []*customfit.Benchmark{customfit.BenchmarkByName("G")},
		Archs:      smallSpace(),
		Width:      32,
	})
	if !errors.Is(err, customfit.ErrCancelled) {
		t.Errorf("error %v does not wrap ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

func TestPublicAPIFitInfeasible(t *testing.T) {
	_, err := customfit.FitContext(context.Background(), customfit.FitOptions{
		Benchmarks: []*customfit.Benchmark{customfit.BenchmarkByName("G")},
		CostCap:    0.001,
		Archs:      smallSpace(),
		Width:      32,
	})
	if !errors.Is(err, customfit.ErrInfeasible) {
		t.Errorf("error %v does not wrap ErrInfeasible", err)
	}
}

func TestPublicAPIFitRangePicksCheaper(t *testing.T) {
	// With an infinite tolerance band every feasible machine qualifies,
	// so Range must select the cheapest one — the baseline.
	fit, err := customfit.FitContext(context.Background(), customfit.FitOptions{
		Benchmarks: []*customfit.Benchmark{customfit.BenchmarkByName("G")},
		CostCap:    20,
		Range:      1000,
		Archs:      smallSpace(),
		Width:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Best != customfit.Baseline {
		t.Errorf("Range-relaxed fit picked %v, want the cheapest (baseline)", fit.Best)
	}
}

func TestPublicAPIBadKernel(t *testing.T) {
	_, err := customfit.ParseKernel("kernel broken( {")
	if !errors.Is(err, customfit.ErrBadKernel) {
		t.Errorf("error %v does not wrap ErrBadKernel", err)
	}
}

func TestPublicAPISearch(t *testing.T) {
	results, err := customfit.Search(context.Background(), customfit.SearchOptions{
		Benchmark: customfit.BenchmarkByName("G"),
		CostCap:   10,
		Space:     smallSpace(),
		Width:     32,
		Seed:      1,
		Prune:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no strategy results")
	}
	for _, r := range results {
		if r.Strategy == "exhaustive" && r.Optimality != 1 {
			t.Errorf("exhaustive optimality %f, want 1", r.Optimality)
		}
	}
}

func TestPublicAPISearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := customfit.Search(ctx, customfit.SearchOptions{
		Benchmark: customfit.BenchmarkByName("G"),
		CostCap:   10,
		Space:     smallSpace(),
		Width:     32,
	})
	if !errors.Is(err, customfit.ErrCancelled) {
		t.Errorf("error %v does not wrap ErrCancelled", err)
	}
}
