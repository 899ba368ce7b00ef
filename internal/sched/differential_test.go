package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/cc"
	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
)

// Differential tests: the linear-time ready queue, sparse blame set,
// bitset liveness walk, bucketed memory dependences and batched spill
// rewrite must reproduce the reference implementations in
// oracle_test.go exactly, on the IR of real spill rounds.

// starvedArchs are register-starved machines (8 registers per ALU, the
// design space's floor) on which most kernels spill for several rounds,
// including the two on which kernel A does not fit at unroll 1.
var starvedArchs = []machine.Arch{
	{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 2},
	{ALUs: 16, MULs: 8, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 2},
	{ALUs: 8, MULs: 2, Regs: 64, L2Ports: 2, L2Lat: 4, Clusters: 1},
	{ALUs: 4, MULs: 1, Regs: 32, L2Ports: 1, L2Lat: 2, Clusters: 1},
}

// tinyArchs have register files small enough (8 registers per cluster)
// that even the generated kernels spill.
var tinyArchs = []machine.Arch{
	{ALUs: 4, MULs: 2, Regs: 16, L2Ports: 1, L2Lat: 2, Clusters: 2},
	{ALUs: 2, MULs: 1, Regs: 16, L2Ports: 2, L2Lat: 4, Clusters: 2},
}

// spillRound is one captured spill round: the IR the driver scheduled
// and is about to rewrite, and the victim batch it chose.
type spillRound struct {
	work    *ir.Func
	victims []ir.Reg
}

// captureSpillRounds compiles prep for arch and returns every spill
// round the driver went through.
func captureSpillRounds(t *testing.T, prep *Prepared, arch machine.Arch) []spillRound {
	t.Helper()
	var rounds []spillRound
	spillRoundHook = func(work *ir.Func, victims []ir.Reg) {
		rounds = append(rounds, spillRound{cloneOwnSpill(work), append([]ir.Reg(nil), victims...)})
	}
	defer func() { spillRoundHook = nil }()
	CompilePrepared(nil, prep, arch, nil) // a failure to fit still yields its rounds
	return rounds
}

// cloneOwnSpill deep-copies f, including the spill array, which
// ir.Func.Clone shares between copies (rewriting one copy would grow
// the other's slot count).
func cloneOwnSpill(f *ir.Func) *ir.Func {
	g := f.Clone()
	old := g.MemByName(SpillMemName)
	if old == nil {
		return g
	}
	cp := *old
	for i, m := range g.Mems {
		if m == old {
			g.Mems[i] = &cp
		}
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Mem == old {
				in.Mem = &cp
			}
		}
	}
	return g
}

func spillSize(f *ir.Func) int {
	if m := f.MemByName(SpillMemName); m != nil {
		return m.Size
	}
	return 0
}

// checkSpillRewrite rewrites one captured round both ways and returns
// the rewritten IR (the next round's input).
func checkSpillRewrite(t *testing.T, name string, r spillRound) *ir.Func {
	t.Helper()
	want, got := cloneOwnSpill(r.work), cloneOwnSpill(r.work)
	nWant := spillRewriteSequential(want, r.victims)
	nGot := SpillRewrite(got, r.victims)
	if nGot != nWant {
		t.Errorf("%s: SpillRewrite rewrote %d registers, sequential %d", name, nGot, nWant)
	}
	if got.NumRegs() != want.NumRegs() {
		t.Errorf("%s: %d registers after the rewrite, sequential %d", name, got.NumRegs(), want.NumRegs())
	}
	if spillSize(got) != spillSize(want) {
		t.Errorf("%s: spill array of %d slots, sequential %d", name, spillSize(got), spillSize(want))
	}
	if got.String() != want.String() {
		t.Errorf("%s: rewritten IR differs from the sequential rewrite\n--- got\n%s\n--- want\n%s", name, got, want)
	}
	return got
}

// checkSchedules partitions f like the compile driver and compares
// every block's skeleton, and its schedule, certificate and blame in
// both priority modes, against the reference implementations.
func checkSchedules(t *testing.T, name string, f *ir.Func, arch machine.Arch, sc *Scratch, osc *oracleScratch) {
	t.Helper()
	g, pl := PartitionClone(f, arch)
	lv := opt.ComputeLiveness(g)
	capRaw := arch.RegsPC() - pressureReserve
	for _, b := range g.Blocks {
		where := fmt.Sprintf("%s block %s", name, b.Name)
		sk := ddg.BuildSkeleton(b, arch)
		if want := buildSkeletonPairwise(b, arch); !reflect.DeepEqual(sk, want) {
			t.Errorf("%s: skeleton differs from the pairwise build", where)
			continue
		}
		for _, inOrder := range []bool{false, true} {
			blame := make([]int, g.NumRegs())
			wantBlame := make([]int, g.NumRegs())
			sb, cert, err := scheduleBlock(g, b, arch, pl, lv, capRaw, blame, inOrder, sk, sc)
			wsb, wcert, werr := scheduleBlockReinit(g, b, arch, pl, lv, capRaw, wantBlame, inOrder, sk, osc)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("%s inOrder=%v: error %v, reference %v", where, inOrder, err, werr)
				continue
			}
			if cert != wcert {
				t.Errorf("%s inOrder=%v: certificate %+v, reference %+v", where, inOrder, cert, wcert)
			}
			if !reflect.DeepEqual(sb, wsb) {
				t.Errorf("%s inOrder=%v: schedule differs from the reference", where, inOrder)
			}
			if !reflect.DeepEqual(blame, wantBlame) {
				t.Errorf("%s inOrder=%v: blame differs from the reference", where, inOrder)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// checkSpillRounds runs the differential checks over the spill rounds
// of prep on arch, and reports how many rounds there were. Every
// round's rewrite is checked; schedules are checked on the first round,
// every eighth, the last, and the final rewritten IR, which covers both
// priority modes without replaying the reference scheduler 32 times on
// the largest kernels.
func checkSpillRounds(t *testing.T, name string, prep *Prepared, arch machine.Arch, sc *Scratch, osc *oracleScratch) int {
	t.Helper()
	rounds := captureSpillRounds(t, prep, arch)
	for k, r := range rounds {
		where := fmt.Sprintf("%s on %s round %d", name, arch, k+1)
		last := k == len(rounds)-1
		if k%8 == 0 || last {
			checkSchedules(t, where, r.work, arch, sc, osc)
		}
		next := checkSpillRewrite(t, where, r)
		if last {
			checkSchedules(t, where+" (rewritten)", next, arch, sc, osc)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	return len(rounds)
}

// TestDifferentialSpillRoundsBenchmarks replays the explorer's unroll
// sweep for all 11 kernels on the register-starved machines — unroll
// 1, 2, 4, 8 until the first factor that spills — and checks every
// spill round it goes through.
func TestDifferentialSpillRoundsBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference scheduler over every spill round")
	}
	sc, osc := NewScratch(), &oracleScratch{}
	total := 0
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var preps []*Prepared
		for _, u := range []int{1, 2, 4, 8} {
			prepared, err := opt.Prepare(fn, u)
			if err != nil {
				break // over the unroll budget, as in the explorer
			}
			preps = append(preps, NewPrepared(prepared))
		}
		for _, arch := range starvedArchs {
			for u, prep := range preps {
				n := checkSpillRounds(t, fmt.Sprintf("%s u=%d", b.Name, 1<<u), prep, arch, sc, osc)
				total += n
				if n > 0 {
					break
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no spill rounds captured: the machines are not register-starved")
	}
	t.Logf("%d spill rounds identical", total)
}

func TestDifferentialSpillRoundsFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference scheduler over every spill round")
	}
	sc, osc := NewScratch(), &oracleScratch{}
	total := 0
	for trial, tr := range fuzzTrials() {
		fn, err := cc.CompileKernel(tr.src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prepared, err := opt.Prepare(fn, tr.u)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prep := NewPrepared(prepared)
		name := fmt.Sprintf("trial %d u=%d", trial, tr.u)
		// The drawn machine checks the no-spill schedules; a starved
		// one forces spill rounds.
		checkSchedules(t, name, prepared, tr.arch, sc, osc)
		total += checkSpillRounds(t, name, prep, tinyArchs[trial%len(tinyArchs)], sc, osc)
	}
	if total == 0 {
		t.Fatal("no spill rounds captured")
	}
	t.Logf("%d spill rounds identical", total)
}

// TestDifferentialSpillRewriteRandomBatches rewrites random victim
// batches of every kernel — any registers, parameters included, in any
// order, over several consecutive rounds — and requires the batched
// rewrite to equal the sequential one. Compile-driver batches rarely
// spill parameters or several victims of one instruction; these do.
func TestDifferentialSpillRewriteRandomBatches(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type kernel struct {
		name string
		fn   *ir.Func
	}
	var kernels []kernel
	for _, b := range bench.All() {
		fn, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kernel{b.Name, fn})
	}
	// The benchmarks have one scalar parameter; this kernel has several,
	// so one batch can spill more than one of them.
	fn, err := cc.CompileKernel(`kernel params(int in[], int out[], int n, int a, int s, int c) {
		int i;
		for (i = 0; i < n; i++) {
			out[i] = in[i] * a + (in[i] >> s) - c;
		}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	kernels = append(kernels, kernel{"params", fn})
	for _, k := range kernels {
		for _, u := range []int{1, 2} {
			f, err := opt.Prepare(k.fn, u)
			if err != nil {
				t.Fatal(err)
			}
			f = cloneOwnSpill(f)
			for round := 1; round <= 4; round++ {
				n := f.NumRegs()
				victims := make([]ir.Reg, 0, 24)
				for _, v := range r.Perm(n)[:min(n, 1+r.Intn(24))] {
					victims = append(victims, ir.Reg(v))
				}
				for _, p := range f.Params {
					if r.Intn(2) == 0 && !slices.Contains(victims, p.Reg) {
						victims = append(victims, p.Reg)
					}
				}
				r.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
				name := fmt.Sprintf("%s u=%d batch %d %v", k.name, u, round, victims)
				f = checkSpillRewrite(t, name, spillRound{f, victims})
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
}

// TestDifferentialSkeletonMixedAddressing builds random blocks of loads
// and stores mixing constant and register addresses over a few arrays —
// the cases the per-address memory index must get right — and requires
// the bucketed skeleton to equal the pairwise one.
func TestDifferentialSkeletonMixedAddressing(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mems := []*ir.MemRef{
		{Name: "a", Space: ir.L2, Elem: ir.ElemI32},
		{Name: "b", Space: ir.L1, Elem: ir.ElemI32},
		{Name: SpillMemName, Space: ir.L1, Elem: ir.ElemI32},
	}
	arch := machine.Baseline
	for trial := 0; trial < 300; trial++ {
		blk := &ir.Block{Name: "b"}
		nregs := 4
		addr := func() ir.Operand {
			if r.Intn(2) == 0 {
				return ir.Imm(int32(r.Intn(4)))
			}
			return ir.R(ir.Reg(r.Intn(nregs)))
		}
		for i := 0; i < 10+r.Intn(60); i++ {
			in := &ir.Instr{Mem: mems[r.Intn(len(mems))], Elem: ir.ElemI32, Off: int32(r.Intn(3))}
			switch r.Intn(3) {
			case 0:
				in.Op, in.Dest, in.Args = ir.OpLoad, ir.Reg(nregs), []ir.Operand{addr()}
				nregs++
			case 1:
				in.Op, in.Dest, in.Args = ir.OpStore, ir.NoReg, []ir.Operand{addr(), ir.R(ir.Reg(r.Intn(nregs)))}
			default:
				in = &ir.Instr{Op: ir.OpAdd, Dest: ir.Reg(nregs), Args: []ir.Operand{ir.R(ir.Reg(r.Intn(nregs))), ir.Imm(1)}}
				nregs++
			}
			blk.Instrs = append(blk.Instrs, in)
		}
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpRet, Dest: ir.NoReg})
		if got, want := ddg.BuildSkeleton(blk, arch), buildSkeletonPairwise(blk, arch); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: skeleton differs from the pairwise build", trial)
		}
	}
}
