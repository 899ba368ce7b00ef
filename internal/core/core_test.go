package core

import (
	"context"
	"strings"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

const coreSrc = `
	kernel double(int in[], int out[], int n) {
		int i;
		for (i = 0; i < n; i++) { out[i] = in[i] * 2; }
	}`

func TestParseCompileRun(t *testing.T) {
	k, err := ParseKernel(coreSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "double" {
		t.Errorf("Name = %q", k.Name)
	}
	if !strings.Contains(k.IR(), "kernel double") {
		t.Error("IR dump missing header")
	}
	c, err := k.Compile(machine.Arch{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Assembly(), "bundles") {
		t.Error("assembly missing header")
	}
	in := []int32{1, 2, 3, 4, 5}
	out := make([]int32, 5)
	st, err := c.Run([]int32{5}, map[string][]int32{"in": in, "out": out})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in {
		if out[i] != 2*v {
			t.Errorf("out[%d] = %d, want %d", i, out[i], 2*v)
		}
	}
	if st.Cycles <= 0 || st.Time < float64(st.Cycles) {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestCompileRejectsInvalidArch(t *testing.T) {
	k, _ := ParseKernel(coreSrc)
	if _, err := k.Compile(machine.Arch{ALUs: 3, MULs: 1, Regs: 64, L2Ports: 1, L2Lat: 4, Clusters: 2}, 1); err == nil {
		t.Error("invalid architecture accepted")
	}
}

func TestInterpretAgreesWithRun(t *testing.T) {
	k, _ := ParseKernel(coreSrc)
	in := []int32{7, 8, 9}
	ref := make([]int32, 3)
	if err := k.Interpret([]int32{3}, map[string][]int32{"in": in, "out": ref}); err != nil {
		t.Fatal(err)
	}
	c, err := k.Compile(machine.Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 3)
	if _, err := c.Run([]int32{3}, map[string][]int32{"in": in, "out": got}); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("out[%d]: interp %d vs sim %d", i, ref[i], got[i])
		}
	}
}

func TestCustomFitCtxPicksWithinBudget(t *testing.T) {
	space := []machine.Arch{
		machine.Baseline,
		{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 4, Clusters: 2},
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 4, L2Lat: 2, Clusters: 2},
		{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 2},
	}
	d := bench.ByName("D")
	fit, err := CustomFitCtx(context.Background(), FitOptions{Benchmarks: []*bench.Benchmark{d}, CostCap: 8, Archs: space})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Cost > 8 {
		t.Errorf("selected cost %.2f over budget", fit.Cost)
	}
	if fit.Speedups["D"] < 1 {
		t.Errorf("fit speedup %.2f < 1", fit.Speedups["D"])
	}
	// An absurdly small budget must fail cleanly.
	if _, err := CustomFitCtx(context.Background(), FitOptions{Benchmarks: []*bench.Benchmark{d}, CostCap: 0.1, Archs: space}); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestRunPhysicalMatchesRun(t *testing.T) {
	k, _ := ParseKernel(coreSrc)
	c, err := k.Compile(machine.Arch{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	a := make([]int32, 8)
	b := make([]int32, 8)
	s1, err := c.Run([]int32{8}, map[string][]int32{"in": in, "out": a})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.RunPhysical([]int32{8}, map[string][]int32{"in": in, "out": b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("out[%d]: virtual %d vs physical %d", i, a[i], b[i])
		}
	}
	if s1.Cycles != s2.Cycles {
		t.Errorf("cycles differ: %d vs %d", s1.Cycles, s2.Cycles)
	}
}
