package sched

import (
	"testing"

	"customfit/internal/bench"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// BenchmarkCompileSpill measures the cold spill path: kernel A (the
// paper's register-hungry FIR) at unroll 1 on a register-starved
// machine, where the full compile driver goes through seven spill
// rounds of partition, schedule, allocate and spill rewrite before the
// program fits. This is the work behind the explorer's spill-driven
// delta fallbacks, which dominate cold exploration time.
func BenchmarkCompileSpill(b *testing.B) {
	fn, err := bench.ByName("A").Compile()
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := opt.Prepare(fn, 1)
	if err != nil {
		b.Fatal(err)
	}
	prep := NewPrepared(prepared)
	arch := machine.Arch{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 4}
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CompilePrepared(nil, prep, arch, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if res.Iterations < 4 {
				b.Fatalf("converged after %d spill rounds, want at least 3", res.Iterations-1)
			}
			b.ReportMetric(float64(res.Iterations-1), "spill_rounds")
		}
	}
}
