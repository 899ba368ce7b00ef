package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"customfit/internal/cc"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/sim"
)

// Random-kernel torture: generate kernels with random arithmetic
// bodies, loop-carried state and stores, compile them for random
// architectures at random unroll factors, and require that the
// cycle-accurate simulation of the scheduled program produces exactly
// the memory image of the plain IR interpreter. This closes the loop
// over every backend component at once: partitioning, scheduling,
// pressure throttling, spilling and the simulator.

// randomKernel emits a CKC kernel whose loop body mixes pure
// expressions over in[i], loop-carried scalars, and scratch stores.
func randomKernel(r *rand.Rand) string {
	expr := func(vars []string, depth int) string {
		var gen func(d int) string
		ops := []string{"+", "-", "*", "&", "|", "^"}
		gen = func(d int) string {
			if d <= 0 || r.Intn(3) == 0 {
				if r.Intn(2) == 0 {
					return vars[r.Intn(len(vars))]
				}
				return fmt.Sprintf("%d", r.Intn(64)-32)
			}
			switch r.Intn(6) {
			case 0:
				return fmt.Sprintf("(%s >> %d)", gen(d-1), r.Intn(6))
			case 1:
				return fmt.Sprintf("(%s << %d)", gen(d-1), r.Intn(4))
			case 2:
				return fmt.Sprintf("(%s ? %s : %s)", gen(d-1), gen(d-1), gen(d-1))
			case 3:
				return fmt.Sprintf("min(%s, %s)", gen(d-1), gen(d-1))
			default:
				return fmt.Sprintf("(%s %s %s)", gen(d-1), ops[r.Intn(len(ops))], gen(d-1))
			}
		}
		return gen(depth)
	}
	nCarried := 1 + r.Intn(3)
	src := "kernel fz(int in[], int out[], int n) {\n\tint i;\n"
	vars := []string{"v"}
	for k := 0; k < nCarried; k++ {
		src += fmt.Sprintf("\tint s%d;\n\ts%d = %d;\n", k, k, r.Intn(100))
		vars = append(vars, fmt.Sprintf("s%d", k))
	}
	src += "\tfor (i = 0; i < n; i++) {\n\t\tint v;\n\t\tv = in[i];\n"
	for k := 0; k < nCarried; k++ {
		src += fmt.Sprintf("\t\ts%d = %s;\n", k, expr(vars, 3))
	}
	src += fmt.Sprintf("\t\tout[i] = %s;\n\t}\n", expr(vars, 3))
	// Final state visible after the loop.
	src += "\tout[n] = s0;\n}\n"
	return src
}

func randomArch(r *rand.Rand, space []machine.Arch) machine.Arch {
	return space[r.Intn(len(space))]
}

// fuzzTrial is one generated kernel with the unroll factor, machine and
// input the torture test draws for it.
type fuzzTrial struct {
	src  string
	u    int
	arch machine.Arch
	in   []int32
}

// fuzzTrials replays the torture test's fixed random sequence: 150
// kernels, each with its unroll factor, machine and input.
func fuzzTrials() []fuzzTrial {
	r := rand.New(rand.NewSource(424242))
	space := machine.FullSpace()
	trials := make([]fuzzTrial, 150)
	for i := range trials {
		tr := &trials[i]
		tr.src = randomKernel(r)
		tr.u = []int{1, 2, 4}[r.Intn(3)]
		tr.arch = randomArch(r, space)
		tr.in = make([]int32, 5+r.Intn(20))
		for j := range tr.in {
			tr.in[j] = int32(r.Intn(512) - 256)
		}
	}
	return trials
}

func TestRandomKernelsAcrossRandomMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles dozens of random kernels")
	}
	for trial, tr := range fuzzTrials() {
		src, u, arch, in := tr.src, tr.u, tr.arch, tr.in
		fn, err := cc.CompileKernel(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		prepared, err := opt.Prepare(fn, u)
		if err != nil {
			t.Fatalf("trial %d: prepare u=%d: %v", trial, u, err)
		}
		res, err := Compile(prepared, arch)
		if err != nil {
			// Pressure non-convergence is a legal outcome at high unroll
			// on starved machines; anything else is a bug.
			t.Fatalf("trial %d: compile on %s u=%d: %v\n%s", trial, arch, u, err, src)
		}
		if err := Validate(res.Prog); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := int32(len(in))
		ref := make([]int32, n+1)
		got := make([]int32, n+1)
		if _, err := ir.Interp(fn, ir.NewEnv(n).Bind("in", in).Bind("out", ref)); err != nil {
			t.Fatalf("trial %d: interp: %v\n%s", trial, err, src)
		}
		if _, err := sim.Run(res.Prog, ir.NewEnv(n).Bind("in", in).Bind("out", got)); err != nil {
			t.Fatalf("trial %d: sim on %s: %v\n%s", trial, arch, err, src)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d on %s u=%d: out[%d] = %d, want %d\n%s",
					trial, arch, u, i, got[i], ref[i], src)
			}
		}
		// And once more through the physical register assignment.
		gotPhys := make([]int32, n+1)
		if _, err := sim.RunPhysical(res.Prog, ir.NewEnv(n).Bind("in", in).Bind("out", gotPhys)); err != nil {
			t.Fatalf("trial %d: physical sim on %s: %v\n%s", trial, arch, err, src)
		}
		for i := range ref {
			if ref[i] != gotPhys[i] {
				t.Fatalf("trial %d on %s u=%d (physical): out[%d] = %d, want %d\n%s",
					trial, arch, u, i, gotPhys[i], ref[i], src)
			}
		}
	}
}
