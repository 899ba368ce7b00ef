package sched

import (
	"fmt"

	"customfit/internal/ir"
	"customfit/internal/machine"
)

// BackendVersion is bumped whenever the backend's code generation
// changes in a way that can alter cycle counts — scheduler heuristics,
// spill policy, partitioning, allocation. It feeds the compiler
// fingerprint that content-addresses the persistent evaluation cache
// (internal/evcache): bumping it invalidates every cached sweep.
const BackendVersion = 1

// Fingerprint identifies the backend's code-generation behavior for
// content-addressed caching: the manually-bumped BackendVersion plus
// the fixed machine-template constants the schedule depends on, so a
// latency-model change invalidates cached sweeps even without a
// version bump.
func Fingerprint() string {
	return fmt.Sprintf("backend-v%d;lat(alu=%d,mul=%d,l1=%d/%d,mv=%d);buses=%d;spill=%d;reserve=%d;ops-v1",
		BackendVersion, machine.LatALU, machine.LatMUL, machine.LatL1, machine.L1Occupancy,
		machine.LatMove, machine.MaxBuses, MaxSpillIterations, pressureReserve)
}

// opCounts tallies one pristine block's operation classes, the inputs
// to the resource-side lower bounds. Architecture-independent, so it is
// computed once per Prepared kernel.
type opCounts struct {
	alu, mul, l1, l2, br int
}

// countsOf returns per-block operation-class tallies, built on first
// use and cached on the Prepared kernel.
func (p *Prepared) countsOf() []opCounts {
	p.countsOnce.Do(func() {
		p.counts = make([]opCounts, len(p.F.Blocks))
		for i, b := range p.F.Blocks {
			c := &p.counts[i]
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpMul:
					c.alu++
					c.mul++
				case ir.OpLoad, ir.OpStore:
					if in.Mem.Space == ir.L1 {
						c.l1++
					} else {
						c.l2++
					}
				case ir.OpBr, ir.OpCBr, ir.OpRet:
					c.br++
				case ir.OpNop:
				default: // plain ALU class (mov, select, compares, arithmetic)
					c.alu++
				}
			}
		}
	})
	return p.counts
}

// LowerBound computes, without scheduling, an admissible per-block
// lower bound (in cycles) on the backend's schedule length for prep's
// kernel on arch — in the spirit of the resource/recurrence bounds
// used by optimal software pipelining. Per block it takes the max of:
//
//   - the latency-weighted critical-path height from the cached
//     ddg.Skeleton (recurrence bound; only when the block ends in a
//     terminator, whose drain edges make the height an issue-cycle
//     bound);
//   - ⌈ALU-class ops / total ALU issue slots⌉ and the multiply analog
//     (⌈muls / (MULsPC·Clusters)⌉);
//   - L1 accesses (the single L1 port accepts one access per cycle);
//   - ⌈L2 accesses · l2 / p2⌉ — each access holds one of the p2
//     non-pipelined ports for the full l2 latency (falling back to
//     ⌈L2 accesses / p2⌉ for terminator-less blocks, where occupancy
//     may drain past the block end);
//   - branch-unit serialization (one branch per cycle).
//
// Every component only ignores constraints the scheduler enforces
// (pressure throttling, per-cluster memory paths, copy insertion,
// spill code), all of which can only lengthen the real schedule, so
// bound ≤ actual holds for every architecture and spill outcome. The
// search layer uses it to prove candidates cannot beat an incumbent
// without paying for a compile.
func LowerBound(prep *Prepared, arch machine.Arch) []int {
	skels := prep.skeletons(pristineClass, prep.F, arch)
	counts := prep.countsOf()
	aluCap := arch.ALUsPC() * arch.Clusters
	mulCap := arch.MULsPC() * arch.Clusters
	out := make([]int, len(skels))
	for i, sk := range skels {
		c := counts[i]
		lb := 0
		if sk.HasTerm {
			lb = sk.CriticalPath()
		} else if len(sk.Heights) > 0 {
			lb = 1
		}
		if v := ceil(c.alu, aluCap); v > lb {
			lb = v
		}
		if v := ceil(c.mul, mulCap); v > lb {
			lb = v
		}
		if v := c.l1 * machine.L1Occupancy; v > lb {
			lb = v
		}
		l2 := ceil(c.l2, arch.L2Ports)
		if sk.HasTerm {
			l2 = ceil(c.l2*arch.L2Lat, arch.L2Ports)
		}
		if l2 > lb {
			lb = l2
		}
		if c.br > lb {
			lb = c.br
		}
		out[i] = lb
	}
	return out
}

func ceil(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
