// Package opt implements the optimizer passes of the custom-fit
// compiler: per-block cleanup (renaming, copy propagation, CSE,
// constant folding, strength reduction, addressing folds, dead-code
// elimination), scalar replacement of small local arrays,
// if-conversion, loop-invariant code motion, and pixel-loop unrolling.
//
// The IR discipline these passes maintain: "home" registers (scalar
// variables, loop counters) may be written in many blocks, but inside a
// cleaned block every definition is a fresh single-assignment temporary
// and home registers are written only by the block's final move group.
// This is the regional-renaming style of trace-scheduling compilers:
// it removes anti- and output-dependences inside the regions the
// scheduler works on, which is where the ILP the paper measures comes
// from.
package opt

import "customfit/internal/ir"

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	in, out map[*ir.Block]*regset
	nregs   int
}

// ComputeLiveness runs the standard backward dataflow over the CFG.
func ComputeLiveness(f *ir.Func) *Liveness {
	f.ComputeCFG()
	n := f.NumRegs()
	lv := &Liveness{
		in:    make(map[*ir.Block]*regset, len(f.Blocks)),
		out:   make(map[*ir.Block]*regset, len(f.Blocks)),
		nregs: n,
	}
	use := make(map[*ir.Block]*regset, len(f.Blocks))
	def := make(map[*ir.Block]*regset, len(f.Blocks))
	for _, b := range f.Blocks {
		u, d := newRegset(n), newRegset(n)
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a.IsReg() && !d.get(a.Reg) {
					u.set(a.Reg)
				}
			}
			if in.Op.HasDest() {
				d.set(in.Dest)
			}
		}
		use[b], def[b] = u, d
		lv.in[b] = newRegset(n)
		lv.out[b] = newRegset(n)
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.out[b]
			for _, s := range b.Succs {
				if out.unionWith(lv.in[s]) {
					changed = true
				}
			}
			// in = use ∪ (out - def)
			nin := out.clone()
			nin.subtract(def[b])
			nin.unionWith(use[b])
			if lv.in[b].unionWith(nin) {
				changed = true
			}
		}
	}
	return lv
}

// LiveOut reports whether r is live on exit from b.
func (lv *Liveness) LiveOut(b *ir.Block, r ir.Reg) bool {
	s, ok := lv.out[b]
	return ok && int(r) < lv.nregs && s.get(r)
}

// LiveIn reports whether r is live on entry to b.
func (lv *Liveness) LiveIn(b *ir.Block, r ir.Reg) bool {
	s, ok := lv.in[b]
	return ok && int(r) < lv.nregs && s.get(r)
}

// Words returns b's live-in and live-out sets as bitset words: register
// r is live when bit r%64 of word r/64 is set. Both are nil for a block
// the analysis did not cover. The slices alias the analysis and must
// not be modified.
func (lv *Liveness) Words(b *ir.Block) (in, out []uint64) {
	if s, ok := lv.in[b]; ok {
		in = s.w
	}
	if s, ok := lv.out[b]; ok {
		out = s.w
	}
	return in, out
}

// regset is a dense register bitset.
type regset struct{ w []uint64 }

func newRegset(n int) *regset { return &regset{w: make([]uint64, (n+63)/64)} }

func (s *regset) set(r ir.Reg)      { s.w[r/64] |= 1 << (uint(r) % 64) }
func (s *regset) get(r ir.Reg) bool { return s.w[r/64]&(1<<(uint(r)%64)) != 0 }

func (s *regset) clone() *regset { return &regset{w: append([]uint64(nil), s.w...)} }

func (s *regset) unionWith(o *regset) bool {
	changed := false
	for i := range s.w {
		nw := s.w[i] | o.w[i]
		if nw != s.w[i] {
			s.w[i] = nw
			changed = true
		}
	}
	return changed
}

func (s *regset) subtract(o *regset) {
	for i := range s.w {
		s.w[i] &^= o.w[i]
	}
}
