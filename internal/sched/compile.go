package sched

import (
	"errors"
	"fmt"
	"sort"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/ops"
	"customfit/internal/regalloc"
	"customfit/internal/vliw"
)

// MaxSpillIterations bounds the schedule → allocate → spill loop.
const MaxSpillIterations = 32

// ErrNoFit reports that register pressure could not be brought within
// the target's register files at this unroll factor. The explorer
// treats it exactly like the paper treats the first spill: stop
// considering this unroll factor and all larger ones.
var ErrNoFit = errors.New("register pressure does not fit")

// DebugCompileLog, when set, receives per-iteration compile diagnostics
// (test instrumentation).
var DebugCompileLog func(format string, args ...interface{})

// spillRoundHook, when set, sees each spill round's victim batch and
// the IR it is about to rewrite (test instrumentation; the callee must
// not mutate either).
var spillRoundHook func(work *ir.Func, victims []ir.Reg)

// Result is a completed compilation for one architecture.
type Result struct {
	Prog *vliw.Program
	// Spilled is the number of virtual registers spilled or
	// rematerialized to make the program fit the register files — the
	// explorer's unroll-until-spill signal.
	Spilled int
	// Iterations is how many schedule/allocate rounds were needed.
	Iterations int
}

// Compile runs the backend on a prepared (optimized, unrolled) kernel:
// cluster partitioning, list scheduling, register allocation, and the
// spill iteration until the program fits the target's register files.
// The input function is not mutated.
func Compile(prepared *ir.Func, arch machine.Arch) (*Result, error) {
	return CompileSpan(nil, prepared, arch)
}

// CompileSpan is Compile with each backend stage (partition, schedule,
// regalloc, spill) recorded as telemetry spans nested under sp.
func CompileSpan(sp *obs.Span, prepared *ir.Func, arch machine.Arch) (*Result, error) {
	return CompilePrepared(sp, NewPrepared(prepared), arch, nil)
}

// CompilePrepared is the full compile driver — the explorer's miss
// path behind CompilePreparedDelta, and the cold path of one-off
// compiles: it compiles a shared Prepared kernel for one architecture,
// reusing the kernel's cached pristine dependence skeletons (per L2
// latency) and the caller's Scratch arena. prep may be shared across
// concurrent workers; sc may not (pass nil to allocate a private one).
// The prepared IR is not mutated.
func CompilePrepared(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	csp := obs.Under(sp, "sched")
	if csp != nil {
		csp.Str("kernel", prep.F.Name).Str("arch", arch.String())
	}
	defer csp.End()
	if sc == nil {
		sc = NewScratch()
	}
	work := prep.F.Clone()
	if !arch.Ops.Empty() {
		ops.Rewrite(work, arch.Ops)
	}
	if arch.MinMax {
		FuseMinMax(work)
	}
	spilled := 0
	alreadySpilled := map[ir.Reg]bool{}
	cap := arch.RegsPC() - 2
	// The cached skeletons describe prep.F's pristine blocks, so they
	// apply only while work is instruction-identical to them: single
	// cluster (partitioning inserts no copies), no min/max or custom-op
	// fusion, and no spill rewrites yet.
	singleCluster := arch.Clusters <= 1
	pristine := arch.Ops.Empty() && !arch.MinMax
	for iter := 1; iter <= MaxSpillIterations; iter++ {
		var g *ir.Func
		psp := csp.Child("sched.partition").Int("iter", int64(iter))
		var pl *Placement
		if singleCluster {
			// Partitioning a single-cluster machine only stamps cluster
			// 0 on every instruction — idempotent, so the work copy is
			// scheduled in place with no per-iteration clone at all.
			g = work
			pl = Partition(g, arch)
		} else {
			// Clustered machines rewrite the instruction stream (copy
			// insertion, operand localization), so partitioning clones:
			// one fused pass instead of Clone followed by Partition.
			g, pl = PartitionClone(work, arch)
		}
		psp.End()
		var skels []*ddg.Skeleton
		if singleCluster && pristine && iter == 1 {
			skels = prep.skeletons(pristineClass, prep.F, arch)
		}
		// After two failed greedy rounds, fall back to program-order
		// priority: a valid execution order whose pressure tracks the
		// source's depth-first evaluation, trading ILP for fit.
		inOrder := iter >= 3
		ssp := csp.Child("sched.schedule").Int("iter", int64(iter))
		prog, lv, err := scheduleFunc(g, arch, pl, cap, inOrder, skels, sc)
		if err != nil {
			ssp.End()
			return nil, err
		}
		ssp.Int("bundles", int64(prog.BundleCount())).Int("ops", int64(prog.OpCount())).End()
		ra := regalloc.AllocateWith(csp, prog, lv, sc.RA)
		if DebugCompileLog != nil {
			DebugCompileLog("iter %d inorder=%v cap=%d maxlive=%v fits=%v bundles=%d", iter, inOrder, cap, ra.MaxLive, ra.Fits, prog.BundleCount())
		}
		if ra.Fits {
			prog.Spills = spilled
			prog.MaxLive = ra.MaxLive
			prog.PhysAssign = ra.Assign
			csp.Int("iterations", int64(iter)).Int("spilled", int64(spilled))
			return &Result{Prog: prog, Spilled: spilled, Iterations: iter}, nil
		}
		spsp := csp.Child("sched.spill").Int("iter", int64(iter))
		// Spill candidates must exist in the pre-partition IR (ids
		// below work's register count; partitioning appends copies).
		// Prefer the registers the scheduler blamed for its pressure
		// stalls; fall back to the allocator's longest live ranges.
		var victims []ir.Reg
		limit := ir.Reg(work.NumRegs())
		// Spill decisively: re-partitioning between rounds adds ±2-3 of
		// placement noise per cluster, so small batches just oscillate.
		// Scale with the total overflow across clusters.
		want := 4
		total := 0
		for _, o := range ra.Overflow {
			total += o
		}
		if 2*total+4 > want {
			want = 2*total + 4
		}
		for _, v := range ra.Victims {
			if len(victims) >= want {
				break
			}
			if v < limit && !alreadySpilled[v] {
				victims = append(victims, v)
				alreadySpilled[v] = true
			}
		}
		overflowing := map[int]bool{}
		for c, o := range ra.Overflow {
			if o > 0 {
				overflowing[c] = true
			}
		}
		type blamed struct {
			r ir.Reg
			n int
		}
		var byBlame []blamed
		for r, n := range prog.Blame {
			if n > 0 && ir.Reg(r) < limit && !alreadySpilled[ir.Reg(r)] &&
				r < len(prog.RegCluster) && overflowing[prog.RegCluster[r]] {
				byBlame = append(byBlame, blamed{ir.Reg(r), n})
			}
		}
		sort.Slice(byBlame, func(i, j int) bool { return byBlame[i].n > byBlame[j].n })
		for _, bl := range byBlame {
			victims = append(victims, bl.r)
			alreadySpilled[bl.r] = true
			if len(victims) >= want {
				break
			}
		}
		if len(victims) == 0 {
			spsp.End()
			return nil, fmt.Errorf("sched %s on %s: pressure %v exceeds %d regs/cluster with no spillable candidates",
				prep.F.Name, arch, ra.MaxLive, ra.Capacity)
		}
		if spillRoundHook != nil {
			spillRoundHook(work, victims)
		}
		n := SpillRewrite(work, victims)
		spsp.Int("victims", int64(len(victims))).Int("rewritten", int64(n)).End()
		if n == 0 {
			return nil, fmt.Errorf("sched %s on %s: spill made no progress (pressure %v)",
				prep.F.Name, arch, ra.MaxLive)
		}
		spilled += n
		// The cap stays fixed: shrinking it only multiplies forced
		// placements. In-order mode plus spilling is what converges.
		// Deliberately no Clean here: CSE would merge the per-use
		// reloads back into one long-lived value and undo the spill.
	}
	return nil, fmt.Errorf("sched %s on %s after %d spill rounds: %w",
		prep.F.Name, arch, MaxSpillIterations, ErrNoFit)
}
