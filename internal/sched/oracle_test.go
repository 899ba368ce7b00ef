package sched

// Frozen copies of the scheduler and spill code as they were before the
// linear-time rewrites: the ready heap re-heapified every cycle, the
// blame scan over every virtual register, the map-keyed liveness
// queries, the pairwise memory-dependence loop, and the one-victim-at-
// a-time spill rewrite. They exist only as oracles for the differential
// tests in differential_test.go and must not change.

import (
	"fmt"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// oracleScratch holds the buffers the reference scheduler reuses.
type oracleScratch struct {
	unschedPreds []int32
	earliest     []int32
	ready        []int32
	deferred     []int32
	isLive       []bool
	immortal     []bool
	remaining    []int32
	live         []int
	stuck        []bool
	res          resources
}

// oracleHeap is a min-heap of instruction indices ordered by descending
// critical-path height (ties to earlier program order), or pure program
// order when inOrder is set (the pressure-safe fallback: program order
// is a valid execution order, so the front of the queue is always
// placeable and pressure tracks the program-order peak). The ordering
// is total — no two entries compare equal — so the pop sequence is
// independent of heap layout.
type oracleHeap struct {
	idx     []int32
	heights []int
	inOrder bool
}

func (q *oracleHeap) less(a, b int32) bool {
	if q.inOrder {
		return a < b
	}
	if q.heights[a] != q.heights[b] {
		return q.heights[a] > q.heights[b]
	}
	return a < b
}

func (q *oracleHeap) push(x int32) {
	q.idx = append(q.idx, x)
	i := len(q.idx) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.idx[i], q.idx[p]) {
			break
		}
		q.idx[i], q.idx[p] = q.idx[p], q.idx[i]
		i = p
	}
}

func (q *oracleHeap) pop() int32 {
	top := q.idx[0]
	n := len(q.idx) - 1
	q.idx[0] = q.idx[n]
	q.idx = q.idx[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *oracleHeap) down(i int) {
	n := len(q.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.idx[r], q.idx[l]) {
			m = r
		}
		if !q.less(q.idx[m], q.idx[i]) {
			return
		}
		q.idx[i], q.idx[m] = q.idx[m], q.idx[i]
		i = m
	}
}

func (q *oracleHeap) reinit() {
	for i := len(q.idx)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// oraclePressure is the reference pressure tracker: a dense isLive flag
// per register, filled by per-register liveness queries.
type oraclePressure struct {
	cap        int // per-cluster live-value budget
	live       []int
	peak       []int
	isLive     []bool
	remaining  []int32 // uses left within the block
	immortal   []bool
	regCluster []int

	// Reuse certificate (see schedCert): the largest live-value count
	// any wouldExceed check compared against the budget, and whether
	// any check actually fired.
	maxChecked int
	bound      bool
}

func (p *oraclePressure) init(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, sc *oracleScratch) {
	n := f.NumRegs()
	p.cap = cap
	p.live = growInt(&sc.live, arch.Clusters)
	p.peak = make([]int, arch.Clusters) // escapes via vliw.Block.SchedPeak
	p.isLive = growBool(&sc.isLive, n)
	p.remaining = grow32(&sc.remaining, n)
	p.immortal = growBool(&sc.immortal, n)
	p.regCluster = pl.RegCluster
	if p.cap < 3 {
		p.cap = 3
	}
	for _, in := range b.Instrs {
		for _, a := range in.Args {
			if a.IsReg() {
				p.remaining[a.Reg]++
			}
		}
	}
	for r := ir.Reg(0); int(r) < n; r++ {
		if lv.LiveOut(b, r) {
			p.immortal[r] = true
		}
		if lv.LiveIn(b, r) && (p.remaining[r] > 0 || p.immortal[r]) {
			p.isLive[r] = true
			p.live[p.clusterOf(r)]++
		}
	}
}

func (p *oraclePressure) clusterOf(r ir.Reg) int {
	if int(r) < len(p.regCluster) {
		return p.regCluster[r]
	}
	return 0
}

// wouldExceed reports whether placing in now pushes its destination
// cluster past the budget, accounting for argument deaths. Duplicate
// register arguments are detected by scanning the (tiny) argument list
// rather than a heap-allocated set.
func (p *oraclePressure) wouldExceed(in *ir.Instr) bool {
	if p.cap <= 0 || !in.Op.HasDest() {
		return false
	}
	limit := p.cap
	cd := p.clusterOf(in.Dest)
	delta := 0
	if !p.isLive[in.Dest] {
		delta++
	}
	for ai, a := range in.Args {
		if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
			continue
		}
		if p.isLive[a.Reg] && !p.immortal[a.Reg] && p.remaining[a.Reg] == 1 &&
			p.clusterOf(a.Reg) == cd && a.Reg != in.Dest {
			delta--
		}
	}
	v := p.live[cd] + delta
	if v > p.maxChecked {
		p.maxChecked = v
	}
	if v > limit {
		p.bound = true
		return true
	}
	return false
}

// place updates liveness state for a placed instruction.
func (p *oraclePressure) place(in *ir.Instr) {
	for ai, a := range in.Args {
		if !a.IsReg() {
			continue
		}
		p.remaining[a.Reg]--
		if dupArg(in.Args[:ai], a.Reg) {
			continue
		}
		if p.remaining[a.Reg] <= 0 && !p.immortal[a.Reg] && p.isLive[a.Reg] {
			p.isLive[a.Reg] = false
			p.live[p.clusterOf(a.Reg)]--
		}
	}
	if in.Op.HasDest() && !p.isLive[in.Dest] {
		p.isLive[in.Dest] = true
		cd := p.clusterOf(in.Dest)
		p.live[cd]++
		if p.live[cd] > p.peak[cd] {
			p.peak[cd] = p.live[cd]
		}
	}
}

// scheduleBlockReinit is the reference scheduleBlock: deferred
// candidates are pushed back and the whole ready heap re-heapified every
// cycle, and forced cycles blame by scanning every register.
func scheduleBlockReinit(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, blame []int, inOrder bool, sk *ddg.Skeleton, sc *oracleScratch) (*vliw.Block, schedCert, error) {
	var cert schedCert
	ins := b.Instrs
	n := len(ins)
	sb := &vliw.Block{IR: b}
	if n == 0 {
		return sb, cert, nil
	}

	unschedPreds := grow32(&sc.unschedPreds, n)
	earliest := grow32(&sc.earliest, n)
	for i, np := range sk.NPreds {
		unschedPreds[i] = int32(np)
	}
	ready := oracleHeap{idx: sc.ready[:0], heights: sk.Heights, inOrder: inOrder}
	for i := 0; i < n; i++ {
		if unschedPreds[i] == 0 {
			ready.push(int32(i))
		}
	}
	rs := &sc.res
	rs.reset(arch)
	var pr oraclePressure
	pr.init(f, b, arch, pl, lv, cap, sc)
	placed := 0
	cycle := 0
	last := 0
	deferred := sc.deferred[:0]
	cooloff := 0 // cycles to wait after a forced placement before forcing again
	maxCycles := 64*n + 4096
	sb.Ops = make([]vliw.Op, 0, n)

	emit := func(i int32) {
		in := ins[i]
		pr.place(in)
		if cycle > last {
			last = cycle
		}
		sb.Ops = append(sb.Ops, vliw.Op{
			Instr:      in,
			Cycle:      cycle,
			Cluster:    pl.Cluster(in),
			SrcCluster: pl.SrcCluster(in),
		})
		placed++
		for _, e := range sk.Succs[i] {
			if t := int32(cycle + e.MinDelta); t > earliest[e.To] {
				earliest[e.To] = t
			}
			unschedPreds[e.To]--
			if unschedPreds[e.To] == 0 {
				ready.push(int32(e.To))
			}
		}
	}

	for placed < n {
		if cycle > maxCycles {
			sc.ready, sc.deferred = ready.idx[:0], deferred[:0]
			return nil, cert, fmt.Errorf("schedule did not converge after %d cycles (%d/%d ops placed)", cycle, placed, n)
		}
		deferred = deferred[:0]
		placedThisCycle := 0
		pressureDeferrals := 0
		// Scanning the whole ready set every cycle is quadratic; after
		// enough candidates fail, the rest of the heap almost certainly
		// cannot issue this cycle either.
		scanBudget := 8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4)
		scanStart := scanBudget
		for len(ready.idx) > 0 && scanBudget > 0 {
			scanBudget--
			i := ready.pop()
			if int(earliest[i]) > cycle {
				deferred = append(deferred, i)
				continue
			}
			if pr.wouldExceed(ins[i]) {
				pressureDeferrals++
				deferred = append(deferred, i)
				continue
			}
			if !rs.tryPlace(ins[i], cycle, pl) {
				deferred = append(deferred, i)
				continue
			}
			emit(i)
			placedThisCycle++
		}
		if pops := scanStart - scanBudget; pops > cert.maxScan {
			cert.maxScan = pops
		}
		if scanBudget == 0 && len(ready.idx) > 0 {
			cert.scanBound = true
		}
		// Pressure deadlock: every issuable candidate would overflow the
		// budget, and the consumers that would relieve it are not ready
		// because these very candidates block them. Force exactly one
		// through, preferring the operation that completes some
		// successor's operand set (so a pressure-reducing consumer
		// becomes ready soonest), then critical-path height.
		if cooloff > 0 {
			cooloff--
		}
		if placedThisCycle == 0 && pressureDeferrals > 0 && cooloff == 0 {
			// Blame the values occupying the saturated clusters: they
			// are what a pressure-aware compiler would spill.
			stuck := growBool(&sc.stuck, arch.Clusters)
			for _, i := range deferred {
				if int(earliest[i]) <= cycle && ins[i].Op.HasDest() {
					stuck[pr.clusterOf(ins[i].Dest)] = true
				}
			}
			for r := 0; r < len(pr.isLive) && r < len(blame); r++ {
				if pr.isLive[r] && stuck[pr.clusterOf(ir.Reg(r))] {
					blame[r]++
				}
			}
			best := int32(-1)
			bestKey := [2]int{-1, -1 << 30}
			for _, i := range deferred {
				if int(earliest[i]) > cycle {
					continue
				}
				enables := 0
				for _, e := range sk.Succs[i] {
					if unschedPreds[e.To] == 1 {
						enables++ // i is the successor's last unscheduled input
					}
				}
				// Tie-break by PROGRAM order, not priority: the frontend
				// emits expressions depth-first, so program order is the
				// register-lean (Sethi-Ullman-like) evaluation order —
				// exactly what a fully serialized machine should follow.
				key := [2]int{enables, -int(i)}
				if key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
					best, bestKey = i, key
				}
			}
			if best >= 0 && rs.tryPlace(ins[best], cycle, pl) {
				sb.Forced++
				// Let the admitted value's consumer catch up (producer
				// latency) before forcing more pressure in.
				cooloff = 1 + ddg.Latency(ins[best], arch)
				emit(best)
				for i, d := range deferred {
					if d == best {
						deferred = append(deferred[:i], deferred[i+1:]...)
						break
					}
				}
			}
		}
		ready.idx = append(ready.idx, deferred...)
		ready.reinit()
		cycle++
	}
	sc.ready, sc.deferred = ready.idx[:0], deferred[:0]
	sb.Len = last + 1
	sb.SchedPeak = pr.peak
	cert.maxPressure = pr.maxChecked
	cert.pressureBound = pr.bound
	return sb, cert, nil
}

// spillRewriteSequential is the reference SpillRewrite: one whole-function
// scan and rebuild per victim.
func spillRewriteSequential(f *ir.Func, regs []ir.Reg) int {
	done := 0
	for _, r := range regs {
		if rewriteOneSequential(f, r) {
			done++
		}
	}
	return done
}

// rewriteOneSequential spills or rematerializes one register.
func rewriteOneSequential(f *ir.Func, r ir.Reg) bool {
	// Collect definitions and uses.
	type site struct {
		b   *ir.Block
		idx int
	}
	var defs, uses []site
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, a := range in.Args {
				if a.IsReg() && a.Reg == r {
					uses = append(uses, site{b, i})
					break
				}
			}
			if in.Op.HasDest() && in.Dest == r {
				defs = append(defs, site{b, i})
			}
		}
	}
	if len(uses) == 0 {
		return false // nothing to relieve
	}

	// Rematerialization: single def by a constant-table load.
	if len(defs) == 1 {
		d := defs[0].b.Instrs[defs[0].idx]
		if d.Op == ir.OpLoad && d.Mem.Const && d.Args[0].IsImm() {
			rematerializeSequential(f, r, d)
			return true
		}
	}

	isParam := false
	for _, p := range f.Params {
		if p.Reg == r {
			isParam = true
		}
	}
	if len(defs) == 0 && !isParam {
		return false
	}

	spill := f.MemByName(SpillMemName)
	if spill == nil {
		spill = f.AddMem(&ir.MemRef{Name: SpillMemName, Space: ir.L1, Elem: ir.ElemI32})
	}
	slot := int32(spill.Size)
	spill.Size++

	// Insert per block, rebuilding instruction lists. Stores follow
	// defs; loads into fresh temps precede uses.
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			usesR := false
			for _, a := range in.Args {
				if a.IsReg() && a.Reg == r {
					usesR = true
				}
			}
			if usesR {
				t := f.NewReg()
				out = append(out, &ir.Instr{
					Op: ir.OpLoad, Dest: t,
					Args: []ir.Operand{ir.Imm(slot)},
					Mem:  spill, Elem: ir.ElemI32,
				})
				for i, a := range in.Args {
					if a.IsReg() && a.Reg == r {
						in.Args[i] = ir.R(t)
					}
				}
			}
			out = append(out, in)
			if in.Op.HasDest() && in.Dest == r {
				out = append(out, &ir.Instr{
					Op: ir.OpStore, Dest: ir.NoReg,
					Args: []ir.Operand{ir.Imm(slot), ir.R(r)},
					Mem:  spill, Elem: ir.ElemI32,
				})
			}
		}
		b.Instrs = out
	}
	if isParam {
		// The incoming value must reach the slot before any reload.
		entry := f.Entry()
		st := &ir.Instr{
			Op: ir.OpStore, Dest: ir.NoReg,
			Args: []ir.Operand{ir.Imm(slot), ir.R(r)},
			Mem:  spill, Elem: ir.ElemI32,
		}
		entry.Instrs = append([]*ir.Instr{st}, entry.Instrs...)
	}
	return true
}

// rematerializeSequential deletes the hoisted constant load defining r
// and replays it in front of every use.
func rematerializeSequential(f *ir.Func, r ir.Reg, def *ir.Instr) {
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			if in == def {
				continue // drop the hoisted load
			}
			usesR := false
			for _, a := range in.Args {
				if a.IsReg() && a.Reg == r {
					usesR = true
				}
			}
			if usesR {
				t := f.NewReg()
				cp := def.Clone()
				cp.Dest = t
				out = append(out, cp)
				for i, a := range in.Args {
					if a.IsReg() && a.Reg == r {
						in.Args[i] = ir.R(t)
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// buildSkeletonPairwise is the reference ddg.BuildSkeleton: every memory
// operation is tested against every earlier one.
func buildSkeletonPairwise(b *ir.Block, arch machine.Arch) *ddg.Skeleton {
	ins := b.Instrs
	n := len(ins)
	sk := &ddg.Skeleton{
		Succs:   make([][]ddg.SkelEdge, n),
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
		sk.Succs[from] = append(succs, ddg.SkelEdge{To: to, MinDelta: d})
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
	var memOps []int

	for i, in := range ins {
		// Register dependences.
		for _, a := range in.Args {
			if !a.IsReg() {
				continue
			}
			if def := lastDef[a.Reg]; def != 0 {
				addEdge(def-1, i, ddg.Latency(ins[def-1], arch)) // true
			}
			lastUses[a.Reg] = append(lastUses[a.Reg], i)
		}
		if in.Op.HasDest() {
			r := in.Dest
			if def := lastDef[r]; def != 0 {
				// Output: later def must commit strictly after earlier.
				d := ddg.Latency(ins[def-1], arch) - ddg.Latency(in, arch) + 1
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
		// Memory dependences.
		if in.Op.IsMem() {
			for _, m := range memOps {
				if d, dep := oracleMemDependence(ins[m], in); dep {
					addEdge(m, i, d)
				}
			}
			memOps = append(memOps, i)
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
				d = ddg.Latency(in, arch) - 1
			}
			if occ := ddg.Occupancy(in, arch); occ-1 > d {
				d = occ - 1
			}
			addEdge(i, n-1, d)
		}
	}

	// Latency-weighted critical-path heights by a reverse topological
	// sweep (program order is a valid topological order).
	for i := n - 1; i >= 0; i-- {
		in := ins[i]
		h := ddg.Latency(in, arch)
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

// oracleMemDependence classifies the ordering constraint between two memory
// operations, returning (minDelta, dependent).
func oracleMemDependence(a, b *ir.Instr) (int, bool) {
	if a.Op == ir.OpLoad && b.Op == ir.OpLoad {
		return 0, false
	}
	if a.Mem != b.Mem {
		return 0, false
	}
	if oracleDisjoint(a, b) {
		return 0, false
	}
	if a.Op == ir.OpStore && b.Op == ir.OpLoad {
		return 1, true // store visible to loads issued in later cycles
	}
	if a.Op == ir.OpStore && b.Op == ir.OpStore {
		return 1, true
	}
	return 0, true // load then store: same-cycle is safe (read-old)
}

// oracleDisjoint reports whether two accesses to the same array provably
// touch different elements: both constant addresses that differ, or the
// same base register with different offsets.
func oracleDisjoint(a, b *ir.Instr) bool {
	ai, bi := a.Args[0], b.Args[0]
	if ai.IsImm() && bi.IsImm() {
		return ai.Imm+a.Off != bi.Imm+b.Off
	}
	if ai.IsReg() && bi.IsReg() && ai.Reg == bi.Reg {
		return a.Off != b.Off
	}
	return false
}
