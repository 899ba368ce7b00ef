package sched

import (
	"slices"

	"customfit/internal/ir"
)

// SpillMemName is the L1 array backing spilled registers.
const SpillMemName = "spill$"

// SpillRewrite inserts spill code for the given virtual registers into
// f (the pre-partition IR): after every definition the value is stored
// to a Level-1 spill slot and before every use it is reloaded into a
// fresh temporary. Values defined by a single constant-table load are
// rematerialized instead — the load is sunk back to its use sites,
// undoing LICM's hoist (cheaper than store+reload, and exactly the
// pressure/bandwidth trade the paper's pathological FIR case shows).
// A register with no use, or with no definition that is not a
// parameter, is left alone.
//
// The whole batch is rewritten in one counting pass and one rewrite
// pass, with the result of rewriting the registers one at a time in
// the given order: each register's temporaries are one contiguous run
// numbered in program order after the previous register's, spill slots
// are assigned in order, an instruction using several of the registers
// reloads them in order, and parameter stores are prepended to the
// entry block in reverse order. regs must be distinct registers of f.
//
// Returns the number of registers actually rewritten.
func SpillRewrite(f *ir.Func, regs []ir.Reg) int {
	nregs := f.NumRegs()
	// victim[r] is 1 + r's position in regs, 0 for other registers.
	victim := make([]int32, nregs)
	for j, r := range regs {
		if r >= 0 && int(r) < nregs && victim[r] == 0 {
			victim[r] = int32(j) + 1
		}
	}
	victimOf := func(r ir.Reg) int {
		if r < 0 || int(r) >= nregs {
			return -1
		}
		return int(victim[r]) - 1
	}

	// Counting pass: per register, the instructions using it (each
	// counted once) and its definitions.
	plans := make([]spillPlan, len(regs))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
					continue
				}
				if j := victimOf(a.Reg); j >= 0 {
					plans[j].uses++
				}
			}
			if in.Op.HasDest() {
				if j := victimOf(in.Dest); j >= 0 {
					plans[j].defs++
					plans[j].def = in
				}
			}
		}
	}

	// Decide each register's treatment in order, numbering temporaries
	// and spill slots exactly as sequential rewriting would.
	done := 0
	var spill *ir.MemRef
	for j, r := range regs {
		p := &plans[j]
		switch {
		case victimOf(r) != j || p.uses == 0:
			continue // nothing to relieve
		case p.defs == 1 && p.def.Op == ir.OpLoad && p.def.Mem.Const && p.def.Args[0].IsImm():
			p.kind = spillRemat
		case p.defs == 0 && !isParam(f, r):
			continue
		default:
			p.kind = spillSlot
			if spill == nil {
				spill = f.MemByName(SpillMemName)
				if spill == nil {
					spill = f.AddMem(&ir.MemRef{Name: SpillMemName, Space: ir.L1, Elem: ir.ElemI32})
				}
			}
			p.slot = int32(spill.Size)
			spill.Size++
		}
		p.temp = ir.Reg(f.NumRegs())
		f.SetNumRegs(f.NumRegs() + p.uses)
		done++
	}
	if done == 0 {
		return 0
	}

	// Rewrite pass: reloads (or rematerialized loads) into fresh
	// temporaries precede uses, stores follow definitions, and the
	// rematerialized registers' hoisted loads are dropped.
	var used []int
	for _, b := range f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				if j := victimOf(in.Dest); j >= 0 && plans[j].kind == spillRemat {
					continue // the hoisted constant load
				}
			}
			used = used[:0]
			for ai, a := range in.Args {
				if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
					continue
				}
				if j := victimOf(a.Reg); j >= 0 && plans[j].kind != spillNone {
					used = append(used, j)
				}
			}
			slices.Sort(used)
			for _, j := range used {
				p := &plans[j]
				t := p.temp
				p.temp++
				if p.kind == spillRemat {
					cp := p.def.Clone()
					cp.Dest = t
					out = append(out, cp)
				} else {
					out = append(out, spillAccess(ir.OpLoad, t, p.slot, spill))
				}
				for i, a := range in.Args {
					if a.IsReg() && a.Reg == regs[j] {
						in.Args[i] = ir.R(t)
					}
				}
			}
			out = append(out, in)
			if in.Op.HasDest() {
				if j := victimOf(in.Dest); j >= 0 && plans[j].kind == spillSlot {
					out = append(out, spillAccess(ir.OpStore, in.Dest, plans[j].slot, spill))
				}
			}
		}
		b.Instrs = out
	}

	// A spilled parameter's incoming value must reach its slot before
	// any reload.
	var entryStores []*ir.Instr
	for j := len(regs) - 1; j >= 0; j-- {
		if plans[j].kind == spillSlot && isParam(f, regs[j]) {
			entryStores = append(entryStores, spillAccess(ir.OpStore, regs[j], plans[j].slot, spill))
		}
	}
	if len(entryStores) > 0 {
		entry := f.Entry()
		entry.Instrs = append(entryStores, entry.Instrs...)
	}
	return done
}

// spillKind is how SpillRewrite treats one register.
type spillKind uint8

const (
	spillNone  spillKind = iota // left alone
	spillRemat                  // constant load replayed before each use
	spillSlot                   // stored after defs, reloaded before uses
)

// spillPlan is SpillRewrite's per-register bookkeeping.
type spillPlan struct {
	uses, defs int
	def        *ir.Instr // the last definition seen
	kind       spillKind
	temp       ir.Reg // next temporary to hand out
	slot       int32
}

// spillAccess builds a spill-slot load into reg or store of reg.
func spillAccess(op ir.Op, reg ir.Reg, slot int32, spill *ir.MemRef) *ir.Instr {
	in := &ir.Instr{Op: op, Mem: spill, Elem: ir.ElemI32}
	if op == ir.OpLoad {
		in.Dest = reg
		in.Args = []ir.Operand{ir.Imm(slot)}
	} else {
		in.Dest = ir.NoReg
		in.Args = []ir.Operand{ir.Imm(slot), ir.R(reg)}
	}
	return in
}

func isParam(f *ir.Func, r ir.Reg) bool {
	for _, p := range f.Params {
		if p.Reg == r {
			return true
		}
	}
	return false
}
