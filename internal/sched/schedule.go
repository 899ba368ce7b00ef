package sched

import (
	"fmt"
	"math/bits"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/opt"
	"customfit/internal/vliw"
)

// Schedule list-schedules every block of a partitioned function against
// the architecture's resource model, producing a vliw.Program (without
// register allocation; see Compile for the full driver).
//
// The resource model per cycle:
//
//   - each cluster issues at most ALUsPC ALU-class operations, of which
//     at most MULsPC may be multiplies; inter-cluster moves charge their
//     source cluster's ALU issue;
//   - each cluster has 1 L1 access path and L2PathsPC L2 access paths;
//   - globally, the single L1 port is busy LatL1 cycles per access and
//     each of the p2 L2 ports is busy l2 cycles per access
//     (non-pipelined memories, paper Table 4);
//   - at most Buses() inter-cluster moves issue per cycle;
//   - the single branch unit lives on cluster 0.
//
// Priority is latency-weighted critical-path height. Issue is
// register-pressure throttled: an operation that would push its
// cluster's live-value count past the register file (minus a small
// reserve) is deferred while anything else can make progress, which is
// how schedules degrade gracefully on register-starved machines instead
// of demanding impossible allocations. Pressure the throttle cannot
// avoid (long-lived loop invariants) is the spill iteration's job.
func Schedule(f *ir.Func, arch machine.Arch, pl *Placement) (*vliw.Program, error) {
	cap := arch.RegsPC() - pressureReserve
	if AblatePressureThrottle {
		cap = 1 << 20 // effectively unlimited: classic pressure-blind greedy
	}
	return ScheduleWithCap(f, arch, pl, cap)
}

// AblatePressureThrottle disables the scheduler's live-value budget,
// reverting to the classic pressure-blind greedy list scheduler (an
// ablation switch; see EXPERIMENTS.md).
var AblatePressureThrottle bool

// ScheduleWithCap schedules with an explicit per-cluster live-value
// budget: a lower cap serializes the schedule, trading ILP for register
// pressure exactly the way a production compiler degrades on
// register-starved machines. The compile driver keeps the cap fixed at
// the register file minus pressureReserve across spill iterations
// (shrinking it only multiplies forced placements); it switches to
// in-order priority instead (see ScheduleMode).
func ScheduleWithCap(f *ir.Func, arch machine.Arch, pl *Placement, cap int) (*vliw.Program, error) {
	return ScheduleMode(f, arch, pl, cap, false)
}

// ScheduleMode additionally selects in-order priority, the
// pressure-safe fallback used after repeated allocation failures.
func ScheduleMode(f *ir.Func, arch machine.Arch, pl *Placement, cap int, inOrder bool) (*vliw.Program, error) {
	prog, _, err := scheduleFunc(f, arch, pl, cap, inOrder, nil, NewScratch())
	return prog, err
}

// scheduleFunc is the scheduling engine: it builds (or reuses) the
// dependence skeleton of every block and list-schedules them, returning
// the program together with the liveness analysis it computed so the
// compile driver can hand the same analysis to the register allocator.
// skels, when non-nil, must be per-block skeletons built from a function
// whose blocks are instruction-for-instruction identical to f's (the
// Prepared cache guarantees this).
func scheduleFunc(f *ir.Func, arch machine.Arch, pl *Placement, cap int, inOrder bool, skels []*ddg.Skeleton, sc *Scratch) (*vliw.Program, *opt.Liveness, error) {
	prog := &vliw.Program{
		Arch:       arch,
		F:          f,
		RegCluster: pl.RegCluster,
	}
	lv := opt.ComputeLiveness(f)
	prog.Blame = make([]int, f.NumRegs())
	for bi, b := range f.Blocks {
		var sk *ddg.Skeleton
		if skels != nil {
			sk = skels[bi]
		} else {
			sk = ddg.BuildSkeleton(b, arch)
		}
		sb, _, err := scheduleBlock(f, b, arch, pl, lv, cap, prog.Blame, inOrder, sk, sc)
		if err != nil {
			return nil, nil, fmt.Errorf("sched %s/%s: %w", f.Name, b.Name, err)
		}
		prog.Blocks = append(prog.Blocks, sb)
	}
	return prog, lv, nil
}

// pressureReserve is how many registers per cluster the throttle keeps
// in hand for allocation conservatism (live intervals are coarser than
// the scheduler's exact liveness).
const pressureReserve = 2

// readyQueue holds the ready candidates of one block in priority order:
// descending critical-path height (ties to earlier program order), or
// pure program order when inOrder is set (the pressure-safe fallback:
// program order is a valid execution order, so the front of the queue
// is always placeable and pressure tracks the program-order peak). The
// ordering is total — no two entries compare equal.
//
// Candidates live in two places. heap is a binary min-heap of the
// candidates readied since they were last visited; front holds the
// candidates deferred by earlier cycles as a sorted stack (best entry
// last). pop takes the better of the two tops, so a cycle visits the
// union in exact priority order without re-heapifying it.
//
// The visit sequence within a cycle is monotone: a visited candidate
// ranks above everything still queued, and a successor it readies
// ranks below it (height(pred) >= MinDelta + height(succ) with
// MinDelta >= 0, ties to the lower index, and edges run forward in
// program order). So the cycle's deferred candidates, in visit order,
// are sorted and all rank above the unvisited rest of front: requeue
// pushes them back on top in reverse and front stays sorted.
type readyQueue struct {
	heap    []int32
	front   []int32
	heights []int
	inOrder bool
}

func (q *readyQueue) less(a, b int32) bool {
	if q.inOrder {
		return a < b
	}
	if q.heights[a] != q.heights[b] {
		return q.heights[a] > q.heights[b]
	}
	return a < b
}

// len is the number of queued candidates.
func (q *readyQueue) len() int { return len(q.heap) + len(q.front) }

func (q *readyQueue) push(x int32) {
	q.heap = append(q.heap, x)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

// pop removes and returns the highest-priority candidate.
func (q *readyQueue) pop() int32 {
	if nf := len(q.front) - 1; nf >= 0 && (len(q.heap) == 0 || q.less(q.front[nf], q.heap[0])) {
		x := q.front[nf]
		q.front = q.front[:nf]
		return x
	}
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *readyQueue) down(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			m = r
		}
		if !q.less(q.heap[m], q.heap[i]) {
			return
		}
		q.heap[i], q.heap[m] = q.heap[m], q.heap[i]
		i = m
	}
}

// requeue returns a cycle's deferred candidates, given in visit order,
// to the front stack.
func (q *readyQueue) requeue(deferred []int32) {
	for i := len(deferred) - 1; i >= 0; i-- {
		q.front = append(q.front, deferred[i])
	}
}

// resources tracks per-cycle slot usage and port occupancy in flat
// row-major tables (cycle*clusters + cluster), reused across blocks via
// the Scratch arena.
type resources struct {
	arch machine.Arch
	nc   int
	rows int // per-cycle rows currently valid (zeroed)
	// per cycle, per cluster slot counters
	alu, mul, l1p, l2p, cu []int32
	// per cycle global counters
	bus, br []int32
	// global non-pipelined port free-times
	l1FreeAt int
	l2FreeAt []int
}

func (rs *resources) reset(arch machine.Arch) {
	rs.arch = arch
	rs.nc = arch.Clusters
	rs.rows = 0
	rs.l1FreeAt = 0
	rs.l2FreeAt = growInt(&rs.l2FreeAt, arch.L2Ports)
}

// growTo batch-extends per-cycle slot tracking, zeroing only the newly
// exposed rows (earlier rows carry this block's live counts).
func (rs *resources) growTo(cycle int) {
	if cycle < rs.rows {
		return
	}
	rows := rs.rows + 256
	for rows <= cycle {
		rows += 256
	}
	rs.alu = growRows(rs.alu, rs.rows*rs.nc, rows*rs.nc)
	rs.mul = growRows(rs.mul, rs.rows*rs.nc, rows*rs.nc)
	rs.l1p = growRows(rs.l1p, rs.rows*rs.nc, rows*rs.nc)
	rs.l2p = growRows(rs.l2p, rs.rows*rs.nc, rows*rs.nc)
	rs.cu = growRows(rs.cu, rs.rows*rs.nc, rows*rs.nc)
	rs.bus = growRows(rs.bus, rs.rows, rows)
	rs.br = growRows(rs.br, rs.rows, rows)
	rs.rows = rows
}

// growRows resizes s to n entries, keeping the first used entries and
// zeroing the rest, reusing capacity where possible.
func growRows(s []int32, used, n int) []int32 {
	if cap(s) < n {
		ns := make([]int32, n)
		copy(ns, s[:used])
		return ns
	}
	s = s[:n]
	for i := used; i < n; i++ {
		s[i] = 0
	}
	return s
}

// tryPlace checks and reserves machine resources for in at the cycle.
func (rs *resources) tryPlace(in *ir.Instr, cycle int, pl *Placement) bool {
	rs.growTo(cycle)
	a := rs.arch
	c := pl.Cluster(in)
	row := cycle * rs.nc
	switch in.Op {
	case ir.OpXMov:
		src := pl.SrcCluster(in)
		if int(rs.alu[row+src]) >= a.ALUsPC() || int(rs.bus[cycle]) >= a.Buses() {
			return false
		}
		rs.alu[row+src]++
		rs.bus[cycle]++
	case ir.OpMul:
		if int(rs.alu[row+c]) >= a.ALUsPC() || int(rs.mul[row+c]) >= a.MULsPC() {
			return false
		}
		rs.alu[row+c]++
		rs.mul[row+c]++
	case ir.OpLoad, ir.OpStore:
		if in.Mem.Space == ir.L1 {
			if rs.l1p[row+c] >= 1 || rs.l1FreeAt > cycle {
				return false
			}
			rs.l1p[row+c]++
			rs.l1FreeAt = cycle + machine.L1Occupancy
		} else {
			if int(rs.l2p[row+c]) >= a.L2PathsPC() {
				return false
			}
			port := -1
			for i, free := range rs.l2FreeAt {
				if free <= cycle {
					port = i
					break
				}
			}
			if port < 0 {
				return false
			}
			rs.l2p[row+c]++
			rs.l2FreeAt[port] = cycle + a.L2Lat
		}
	case ir.OpFused:
		// One pipelined custom-op unit per cluster: it accepts one fused
		// op per cycle without charging an ALU issue slot (the unit's
		// silicon and register ports are priced by the cost and derate
		// models instead).
		if rs.cu[row+c] >= 1 {
			return false
		}
		rs.cu[row+c]++
	case ir.OpBr, ir.OpCBr, ir.OpRet:
		if rs.br[cycle] >= 1 {
			return false
		}
		rs.br[cycle]++
	case ir.OpNop:
	default: // plain ALU op (incl. mov, select, compares)
		if int(rs.alu[row+c]) >= a.ALUsPC() {
			return false
		}
		rs.alu[row+c]++
	}
	return true
}

// pressure tracks exact per-cluster live-value counts as the schedule
// is built. All state except the escaping peak slice lives in the
// Scratch arena.
type pressure struct {
	cap  int // per-cluster live-value budget
	live []int
	peak []int
	// liveRegs is the set of live registers in no particular order;
	// livePos[r] is 1 + r's index in liveRegs, or 0 when r is dead.
	liveRegs   []ir.Reg
	livePos    []int32
	remaining  []int32 // uses left within the block
	immortal   []bool
	regCluster []int

	// Reuse certificate (see schedCert): the largest live-value count
	// any wouldExceed check compared against the budget, and whether
	// any check actually fired.
	maxChecked int
	bound      bool
}

func (p *pressure) init(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, sc *Scratch) {
	n := f.NumRegs()
	p.cap = cap
	p.live = growInt(&sc.live, arch.Clusters)
	p.peak = make([]int, arch.Clusters) // escapes via vliw.Block.SchedPeak
	p.liveRegs = sc.liveRegs[:0]
	p.livePos = grow32(&sc.livePos, n)
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
	liveIn, liveOut := lv.Words(b)
	forEachBit(liveOut, n, func(r ir.Reg) { p.immortal[r] = true })
	forEachBit(liveIn, n, func(r ir.Reg) {
		if p.remaining[r] > 0 || p.immortal[r] {
			p.add(r)
		}
	})
}

// forEachBit calls fn for every register below n whose bit is set in
// the bitset words, in increasing order.
func forEachBit(words []uint64, n int, fn func(ir.Reg)) {
	for i, w := range words {
		for w != 0 {
			r := i*64 + bits.TrailingZeros64(w)
			if r >= n {
				return
			}
			fn(ir.Reg(r))
			w &= w - 1
		}
	}
}

func (p *pressure) isLive(r ir.Reg) bool { return p.livePos[r] != 0 }

// add marks r live and charges its cluster.
func (p *pressure) add(r ir.Reg) {
	p.liveRegs = append(p.liveRegs, r)
	p.livePos[r] = int32(len(p.liveRegs))
	p.live[p.clusterOf(r)]++
}

// kill marks r dead and releases its cluster.
func (p *pressure) kill(r ir.Reg) {
	i := p.livePos[r] - 1
	last := p.liveRegs[len(p.liveRegs)-1]
	p.liveRegs[i] = last
	p.livePos[last] = i + 1
	p.liveRegs = p.liveRegs[:len(p.liveRegs)-1]
	p.livePos[r] = 0
	p.live[p.clusterOf(r)]--
}

func (p *pressure) clusterOf(r ir.Reg) int {
	if int(r) < len(p.regCluster) {
		return p.regCluster[r]
	}
	return 0
}

// wouldExceed reports whether placing in now pushes its destination
// cluster past the budget, accounting for argument deaths. Duplicate
// register arguments are detected by scanning the (tiny) argument list
// rather than a heap-allocated set.
func (p *pressure) wouldExceed(in *ir.Instr) bool {
	if p.cap <= 0 || !in.Op.HasDest() {
		return false
	}
	limit := p.cap
	cd := p.clusterOf(in.Dest)
	delta := 0
	if !p.isLive(in.Dest) {
		delta++
	}
	for ai, a := range in.Args {
		if !a.IsReg() || dupArg(in.Args[:ai], a.Reg) {
			continue
		}
		if p.isLive(a.Reg) && !p.immortal[a.Reg] && p.remaining[a.Reg] == 1 &&
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

// dupArg reports whether reg already appeared among the earlier args.
func dupArg(args []ir.Operand, reg ir.Reg) bool {
	for _, a := range args {
		if a.IsReg() && a.Reg == reg {
			return true
		}
	}
	return false
}

// place updates liveness state for a placed instruction.
func (p *pressure) place(in *ir.Instr) {
	for ai, a := range in.Args {
		if !a.IsReg() {
			continue
		}
		p.remaining[a.Reg]--
		if dupArg(in.Args[:ai], a.Reg) {
			continue
		}
		if p.remaining[a.Reg] <= 0 && !p.immortal[a.Reg] && p.isLive(a.Reg) {
			p.kill(a.Reg)
		}
	}
	if in.Op.HasDest() && !p.isLive(in.Dest) {
		p.add(in.Dest)
		cd := p.clusterOf(in.Dest)
		if p.live[cd] > p.peak[cd] {
			p.peak[cd] = p.live[cd]
		}
	}
}

// schedCert is the reuse certificate of one block schedule: the
// dynamic bounds that, together with the exact resource parameters the
// block's instructions can observe, let the delta compiler (delta.go)
// prove a cached schedule is the one this run would rebuild. The
// scheduler's decision sequence depends on the budget and the scan
// limit only through comparisons against live-value counts and pop
// counts; as long as a new budget clears every count the recorded run
// compared (and the recorded run never hit either limit), the decision
// sequence — and therefore the schedule — is bit-identical.
type schedCert struct {
	// maxPressure is the largest live-value count any budget check
	// compared; pressureBound records whether a check ever fired
	// (deferral or forced placement), which makes the schedule depend
	// on the exact budget value.
	maxPressure   int
	pressureBound bool
	// maxScan is the most ready-queue pops any single cycle performed;
	// scanBound records whether a cycle exhausted its scan budget with
	// candidates still queued, which makes the schedule depend on the
	// exact scan budget.
	maxScan   int
	scanBound bool
}

func scheduleBlock(f *ir.Func, b *ir.Block, arch machine.Arch, pl *Placement, lv *opt.Liveness, cap int, blame []int, inOrder bool, sk *ddg.Skeleton, sc *Scratch) (*vliw.Block, schedCert, error) {
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
	ready := readyQueue{heap: sc.ready[:0], front: sc.front[:0], heights: sk.Heights, inOrder: inOrder}
	for i := 0; i < n; i++ {
		if unschedPreds[i] == 0 {
			ready.push(int32(i))
		}
	}
	rs := &sc.res
	rs.reset(arch)
	var pr pressure
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
			sc.ready, sc.front, sc.deferred, sc.liveRegs = ready.heap[:0], ready.front[:0], deferred[:0], pr.liveRegs[:0]
			return nil, cert, fmt.Errorf("schedule did not converge after %d cycles (%d/%d ops placed)", cycle, placed, n)
		}
		deferred = deferred[:0]
		placedThisCycle := 0
		pressureDeferrals := 0
		// Scanning the whole ready set every cycle is quadratic; after
		// enough candidates fail, the rest of the queue almost certainly
		// cannot issue this cycle either.
		scanBudget := 8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4)
		scanStart := scanBudget
		for ready.len() > 0 && scanBudget > 0 {
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
		if scanBudget == 0 && ready.len() > 0 {
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
			for _, r := range pr.liveRegs {
				if int(r) < len(blame) && stuck[pr.clusterOf(r)] {
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
		ready.requeue(deferred)
		cycle++
	}
	sc.ready, sc.front, sc.deferred, sc.liveRegs = ready.heap[:0], ready.front[:0], deferred[:0], pr.liveRegs[:0]
	sb.Len = last + 1
	sb.SchedPeak = pr.peak
	cert.maxPressure = pr.maxChecked
	cert.pressureBound = pr.bound
	return sb, cert, nil
}
