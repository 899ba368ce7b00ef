package ddg

import (
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// SkelEdge is a dependence edge in index form: the successor's position
// in the block and the minimum issue-cycle distance.
type SkelEdge struct {
	To       int
	MinDelta int
}

// Skeleton is the dependence structure of one basic block with no
// ir.Instr pointers: successors, predecessor counts and critical-path
// heights are all keyed by instruction index. Because the only
// architecture parameter the dependence rules read is the Level-2
// latency (see Latency and Occupancy), a skeleton built once per
// (block, L2Lat) class is valid for every architecture in that class
// and can be shared across concurrent compiles — it is immutable after
// construction.
type Skeleton struct {
	// Succs[i] lists i's forward dependence edges.
	Succs [][]SkelEdge
	// NPreds[i] is the number of incoming dependence edges of i.
	NPreds []int
	// Heights[i] is the latency-weighted critical-path distance from i
	// to the end of the block (the scheduler's priority).
	Heights []int
	// HasTerm records whether the final instruction is the block
	// terminator (carrying the drain edges).
	HasTerm bool
}

// BuildSkeleton constructs the index-form dependence graph for a block
// under the given architecture's latency class. The edge set and
// heights are identical to Build's; Build is implemented on top of it.
func BuildSkeleton(b *ir.Block, arch machine.Arch) *Skeleton {
	ins := b.Instrs
	n := len(ins)
	sk := &Skeleton{
		Succs:   make([][]SkelEdge, n),
		NPreds:  make([]int, n),
		Heights: make([]int, n),
	}
	if n == 0 {
		return sk
	}
	addEdge := func(from, to, d int) {
		// Keep only the strongest constraint between a pair.
		succs := sk.Succs[from]
		for i := range succs {
			if succs[i].To == to {
				if d > succs[i].MinDelta {
					succs[i].MinDelta = d
				}
				return
			}
		}
		sk.Succs[from] = append(succs, SkelEdge{To: to, MinDelta: d})
		sk.NPreds[to]++
	}

	// Dense def/use tables sized by the largest register the block
	// touches (maps here dominate graph-construction cost).
	maxReg := -1
	for _, in := range ins {
		for _, a := range in.Args {
			if a.IsReg() && int(a.Reg) > maxReg {
				maxReg = int(a.Reg)
			}
		}
		if in.Op.HasDest() && int(in.Dest) > maxReg {
			maxReg = int(in.Dest)
		}
	}
	lastDef := make([]int, maxReg+1) // node index + 1; 0 = no def seen
	lastUses := make([][]int, maxReg+1)
	var mem memIndex

	for i, in := range ins {
		// Register dependences.
		for _, a := range in.Args {
			if !a.IsReg() {
				continue
			}
			if def := lastDef[a.Reg]; def != 0 {
				addEdge(def-1, i, Latency(ins[def-1], arch)) // true
			}
			lastUses[a.Reg] = append(lastUses[a.Reg], i)
		}
		if in.Op.HasDest() {
			r := in.Dest
			if def := lastDef[r]; def != 0 {
				// Output: later def must commit strictly after earlier.
				d := Latency(ins[def-1], arch) - Latency(in, arch) + 1
				if d < 0 {
					d = 0
				}
				addEdge(def-1, i, d)
			}
			for _, u := range lastUses[r] {
				if u != i {
					addEdge(u, i, 0) // anti
				}
			}
			lastDef[r] = i + 1
			lastUses[r] = nil
		}
		// Memory dependences. Only accesses to the same array can
		// conflict, and only when at least one is a store, so each
		// operation is tested against just those earlier operations
		// (see memIndex). Every dependent (m, i) pair still gets
		// exactly one edge, appended to Succs[m] in increasing i, so
		// the skeleton is the one the all-pairs test would build.
		if in.Op.IsMem() {
			for _, m := range mem.candidates(in) {
				if d, dep := memDependence(ins[m], in); dep {
					addEdge(int(m), i, d)
				}
			}
			mem.add(in, int32(i))
		}
	}

	// Terminator constraints: every result committed and every memory
	// port drained by the end of the block, so no state is in flight
	// across block boundaries.
	if b.Terminator() != nil {
		sk.HasTerm = true
		for i, in := range ins[:n-1] {
			d := 0
			if in.Op.HasDest() {
				d = Latency(in, arch) - 1
			}
			if occ := Occupancy(in, arch); occ-1 > d {
				d = occ - 1
			}
			addEdge(i, n-1, d)
		}
	}

	// Latency-weighted critical-path heights by a reverse topological
	// sweep (program order is a valid topological order).
	for i := n - 1; i >= 0; i-- {
		in := ins[i]
		h := Latency(in, arch)
		if !in.Op.HasDest() {
			h = 1
		}
		for _, e := range sk.Succs[i] {
			if v := e.MinDelta + sk.Heights[e.To]; v > h {
				h = v
			}
		}
		sk.Heights[i] = h
	}
	return sk
}

// Materialize expands the skeleton into a pointer-form Graph over the
// given block's instructions. The block must be structurally identical
// to the one the skeleton was built from (same instruction sequence);
// the prepared-kernel cache guarantees this by only reusing skeletons
// for unmodified clones of the source function.
func (sk *Skeleton) Materialize(b *ir.Block) *Graph {
	g := &Graph{Nodes: make([]*Node, len(b.Instrs))}
	for i, in := range b.Instrs {
		g.Nodes[i] = &Node{Index: i, Instr: in, Height: sk.Heights[i]}
	}
	for i, succs := range sk.Succs {
		from := g.Nodes[i]
		for _, e := range succs {
			to := g.Nodes[e.To]
			from.Succs = append(from.Succs, Edge{To: to, MinDelta: e.MinDelta})
			to.Preds = append(to.Preds, Edge{To: from, MinDelta: e.MinDelta})
		}
	}
	if sk.HasTerm && len(g.Nodes) > 0 {
		g.Term = g.Nodes[len(g.Nodes)-1]
	}
	return g
}

// CriticalPath returns the skeleton's critical path length in cycles.
func (sk *Skeleton) CriticalPath() int {
	cp := 0
	for _, h := range sk.Heights {
		if h > cp {
			cp = h
		}
	}
	return cp
}

// memIndex buckets a block's memory operations by array so dependence
// construction tests each operation only against earlier operations
// that can conflict with it: earlier stores for a load, everything for
// a store, within the same array. Inside a bucket, accesses at constant
// addresses are further indexed by address, because two different
// constant addresses never conflict (every spill-slot access is one).
type memIndex struct {
	buckets []memBucket
	scratch []int32
}

// memBucket indexes the earlier accesses to one array: every access,
// those with a register address, and those with a constant address by
// effective address.
type memBucket struct {
	mem     *ir.MemRef
	any     memAccesses
	regAddr memAccesses
	byAddr  map[int32]*memAccesses
}

// memAccesses lists accesses in program order, and the stores among
// them.
type memAccesses struct{ all, stores []int32 }

func (a *memAccesses) add(i int32, store bool) {
	a.all = append(a.all, i)
	if store {
		a.stores = append(a.stores, i)
	}
}

// conflicts returns the accesses a load (store=false) or store must be
// tested against.
func (a *memAccesses) conflicts(store bool) []int32 {
	if store {
		return a.all
	}
	return a.stores
}

func (x *memIndex) bucket(m *ir.MemRef) *memBucket {
	for i := range x.buckets {
		if x.buckets[i].mem == m {
			return &x.buckets[i]
		}
	}
	x.buckets = append(x.buckets, memBucket{mem: m})
	return &x.buckets[len(x.buckets)-1]
}

// constAddr returns the effective address of a constant-address access,
// computed exactly as disjoint compares it.
func constAddr(in *ir.Instr) (int32, bool) {
	if a := in.Args[0]; a.IsImm() {
		return a.Imm + in.Off, true
	}
	return 0, false
}

// candidates returns, in no particular order, the earlier operations
// that in may depend on: a superset of the dependent ones, each once.
// The slice is valid until the next call.
func (x *memIndex) candidates(in *ir.Instr) []int32 {
	bk := x.bucket(in.Mem)
	store := in.Op == ir.OpStore
	addr, isConst := constAddr(in)
	if !isConst {
		return bk.any.conflicts(store)
	}
	// A constant address conflicts only with register-addressed
	// accesses and with constant accesses to the same address.
	x.scratch = append(x.scratch[:0], bk.regAddr.conflicts(store)...)
	if same := bk.byAddr[addr]; same != nil {
		x.scratch = append(x.scratch, same.conflicts(store)...)
	}
	return x.scratch
}

// add records memory operation i.
func (x *memIndex) add(in *ir.Instr, i int32) {
	bk := x.bucket(in.Mem)
	store := in.Op == ir.OpStore
	bk.any.add(i, store)
	addr, isConst := constAddr(in)
	if !isConst {
		bk.regAddr.add(i, store)
		return
	}
	if bk.byAddr == nil {
		bk.byAddr = make(map[int32]*memAccesses)
	}
	same := bk.byAddr[addr]
	if same == nil {
		same = &memAccesses{}
		bk.byAddr[addr] = same
	}
	same.add(i, store)
}
