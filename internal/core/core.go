// Package core is the high-level facade over the custom-fit toolchain:
// compile a CKC kernel for any architecture in the template, simulate
// it cycle-accurately, explore the design space, and "custom-fit" an
// architecture to an application under a cost budget — the paper's
// end-to-end loop as a library.
package core

import (
	"context"
	"fmt"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/dse"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
	"customfit/internal/sim"
	"customfit/internal/vliw"
)

// Kernel is a parsed and lowered CKC kernel ready for retargeting.
type Kernel struct {
	Name string
	fn   *ir.Func
}

// ParseKernel compiles CKC source containing exactly one kernel.
// Frontend failures wrap ErrBadKernel.
func ParseKernel(src string) (*Kernel, error) {
	return ParseKernelCtx(context.Background(), src)
}

// ParseKernelCtx is ParseKernel with its frontend span parented under
// the context's current span (obs.SpanFromContext), so a traced job's
// parse work lands inside the job's trace.
func ParseKernelCtx(ctx context.Context, src string) (*Kernel, error) {
	sp := obs.StartSpanCtx(ctx, "frontend")
	fn, err := cc.CompileKernelSpan(sp, src)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadKernel, err)
	}
	return &Kernel{Name: fn.Name, fn: fn}, nil
}

// IR returns the lowered (unoptimized) IR listing.
func (k *Kernel) IR() string { return k.fn.String() }

// Compiled is a kernel scheduled for one concrete architecture.
type Compiled struct {
	Kernel  *Kernel
	Arch    machine.Arch
	Unroll  int
	Spilled int
	Prog    *vliw.Program
}

// Compile retargets the kernel to arch at the given unroll factor,
// running the full pipeline: optimize, unroll, partition, schedule,
// allocate (with spilling if needed), validate.
func (k *Kernel) Compile(arch machine.Arch, unroll int) (*Compiled, error) {
	return k.CompileCtx(context.Background(), arch, unroll)
}

// CompileCtx is Compile with the compile span parented under the
// context's current span (see ParseKernelCtx).
func (k *Kernel) CompileCtx(ctx context.Context, arch machine.Arch, unroll int) (*Compiled, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpanCtx(ctx, "compile")
	if sp != nil {
		sp.Str("kernel", k.Name).Str("arch", arch.String()).Int("unroll", int64(unroll))
	}
	defer sp.End()
	prepared, err := opt.PrepareSpan(sp, k.fn, unroll)
	if err != nil {
		return nil, err
	}
	res, err := sched.CompileSpan(sp, prepared, arch)
	if err != nil {
		return nil, err
	}
	vsp := sp.Child("sched.validate")
	err = sched.Validate(res.Prog)
	vsp.End()
	if err != nil {
		return nil, fmt.Errorf("core: internal scheduling error: %w", err)
	}
	return &Compiled{
		Kernel:  k,
		Arch:    arch,
		Unroll:  unroll,
		Spilled: res.Spilled,
		Prog:    res.Prog,
	}, nil
}

// Assembly renders the scheduled VLIW program.
func (c *Compiled) Assembly() string { return c.Prog.String() }

// RunStats reports a simulation.
type RunStats struct {
	Cycles      int64
	Ops         int64
	Bundles     int64
	MemAccesses int64
	IPC         float64
	// Time is Cycles scaled by the architecture's cycle-time derating —
	// the paper's performance metric.
	Time float64
	// Dynamic, cycle-weighted resource occupancy (see sim.Stats):
	// fractions of available ALU/MUL slot-cycles and L1/L2 port-cycles
	// actually used, plus the resource that bounded the run.
	ALUOcc, MULOcc, L1Occ, L2Occ float64
	StallCycles                  int64
	Bound                        string
}

// newRunStats converts simulator statistics to the facade's form.
func newRunStats(st *sim.Stats, arch machine.Arch) *RunStats {
	ipc := 0.0
	if st.Cycles > 0 {
		ipc = float64(st.Ops) / float64(st.Cycles)
	}
	return &RunStats{
		Cycles:      st.Cycles,
		Ops:         st.Ops,
		Bundles:     st.Bundles,
		MemAccesses: st.MemAccesses,
		IPC:         ipc,
		Time:        float64(st.Cycles) * machine.DefaultCycleModel.Derate(arch),
		ALUOcc:      st.ALUOcc,
		MULOcc:      st.MULOcc,
		L1Occ:       st.L1Occ,
		L2Occ:       st.L2Occ,
		StallCycles: st.StallCycles,
		Bound:       st.Bound,
	}
}

// Run executes the compiled kernel on the cycle-accurate simulator.
// args are scalar parameters in declaration order; mem binds arrays by
// name (mutated in place).
func (c *Compiled) Run(args []int32, mem map[string][]int32) (*RunStats, error) {
	return c.RunCtx(context.Background(), args, mem)
}

// RunCtx is Run with the simulation span parented under the context's
// current span (see ParseKernelCtx).
func (c *Compiled) RunCtx(ctx context.Context, args []int32, mem map[string][]int32) (*RunStats, error) {
	env := ir.NewEnv(args...)
	for name, data := range mem {
		env.Bind(name, data)
	}
	st, err := sim.RunCtx(ctx, c.Prog, env)
	if err != nil {
		return nil, err
	}
	return newRunStats(st, c.Arch), nil
}

// RunPhysical is Run through the register allocator's physical
// assignment: every access goes to the assigned physical register in
// its cluster's file, so the run additionally proves the allocation
// conflict-free.
func (c *Compiled) RunPhysical(args []int32, mem map[string][]int32) (*RunStats, error) {
	env := ir.NewEnv(args...)
	for name, data := range mem {
		env.Bind(name, data)
	}
	st, err := sim.RunPhysical(c.Prog, env)
	if err != nil {
		return nil, err
	}
	return newRunStats(st, c.Arch), nil
}

// Interpret runs the kernel's (unscheduled) IR directly — the semantic
// reference, useful for validating against Run.
func (k *Kernel) Interpret(args []int32, mem map[string][]int32) error {
	env := ir.NewEnv(args...)
	for name, data := range mem {
		env.Bind(name, data)
	}
	_, err := ir.Interp(k.fn, env)
	return err
}

// FitResult is the outcome of a custom-fit run.
type FitResult struct {
	// Best is the selected architecture.
	Best machine.Arch
	// Cost is its datapath cost relative to the baseline.
	Cost float64
	// Speedups per benchmark, relative to the baseline machine.
	Speedups map[string]float64
	// Results is the full exploration for further analysis.
	Results *dse.Results
}

func ensureBaseline(archs []machine.Arch) []machine.Arch {
	for _, a := range archs {
		if a == machine.Baseline {
			return archs
		}
	}
	return append(append([]machine.Arch(nil), archs...), machine.Baseline)
}

func pickBest(res *dse.Results, benchmarks []*bench.Benchmark, costCap float64) (*FitResult, error) {
	best, bestScore := -1, -1.0
	for i := range res.Archs {
		if res.Cost[i] > costCap {
			continue
		}
		sum, ok := 0.0, true
		for _, b := range benchmarks {
			ev := res.Eval[b.Name][i]
			if ev.Failed {
				ok = false
				break
			}
			sum += ev.Speedup
		}
		if !ok {
			continue
		}
		if avg := sum / float64(len(benchmarks)); avg > bestScore {
			best, bestScore = i, avg
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("%w: cost cap %.1f", ErrInfeasible, costCap)
	}
	out := &FitResult{
		Best:     res.Archs[best],
		Cost:     res.Cost[best],
		Speedups: map[string]float64{},
		Results:  res,
	}
	for _, b := range benchmarks {
		out.Speedups[b.Name] = res.Eval[b.Name][best].Speedup
	}
	return out, nil
}
