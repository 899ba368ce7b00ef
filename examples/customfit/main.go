// Custom-fit an architecture to one algorithm, then discover the
// paper's central warning: the machine tailored for one kernel can be a
// poor — even pathological — choice for its neighbour from the same
// application domain.
//
//	go run ./examples/customfit
//
// This drives the paper's Section 4.2 experiment on a sampled design
// space (the full space takes tens of minutes single-threaded; use
// cmd/cfp-explore for the real thing).
package main

import (
	"context"
	"fmt"
	"log"

	"customfit/internal/bench"
	"customfit/internal/core"
	"customfit/internal/machine"
)

func main() {
	// Sample the design space for a quick run.
	full := machine.FullSpace()
	var space []machine.Arch
	for i := 0; i < len(full); i += 16 {
		space = append(space, full[i])
	}
	fmt.Printf("searching %d of %d machines, cost budget 10.0\n\n", len(space), len(full))

	budget := 10.0
	a := bench.ByName("A") // 7x7 FIR: multiply- and register-hungry
	h := bench.ByName("H") // 3x3 median: pure ALU issue width

	fitA := fit([]*bench.Benchmark{a}, budget, space)
	fmt.Printf("custom fit for %s: %s (cost %.1f) -> %.2fx on %s\n",
		a.Name, fitA.Best, fitA.Cost, fitA.Speedups["A"], a.Name)

	fitH := fit([]*bench.Benchmark{h}, budget, space)
	fmt.Printf("custom fit for %s: %s (cost %.1f) -> %.2fx on %s\n\n",
		h.Name, fitH.Best, fitH.Cost, fitH.Speedups["H"], h.Name)

	// Cross-evaluate: run each kernel on the other's machine.
	crossEval := func(b *bench.Benchmark, arch machine.Arch) float64 {
		return fit([]*bench.Benchmark{b}, 1e9, []machine.Arch{arch}).Speedups[b.Name]
	}
	aOnH := crossEval(a, fitH.Best)
	hOnA := crossEval(h, fitA.Best)
	fmt.Printf("design for one algorithm, run another (the paper's Section 4.2):\n")
	fmt.Printf("  %s on %s's machine: %.2fx (vs %.2fx on its own)\n", a.Name, h.Name, aOnH, fitA.Speedups["A"])
	fmt.Printf("  %s on %s's machine: %.2fx (vs %.2fx on its own)\n", h.Name, a.Name, hOnA, fitH.Speedups["H"])

	// And the compromise: fit for both at once.
	both := fit([]*bench.Benchmark{a, h}, budget, space)
	fmt.Printf("\nfit for both: %s (cost %.1f) -> A %.2fx, H %.2fx\n",
		both.Best, both.Cost, both.Speedups["A"], both.Speedups["H"])
}

// fit custom-fits an architecture to benchmarks within archs under the
// cost budget.
func fit(benchmarks []*bench.Benchmark, budget float64, archs []machine.Arch) *core.FitResult {
	res, err := core.CustomFitCtx(context.Background(), core.FitOptions{
		Benchmarks: benchmarks, CostCap: budget, Archs: archs,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
