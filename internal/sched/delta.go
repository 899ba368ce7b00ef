package sched

import (
	"sync"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/ops"
	"customfit/internal/opt"
	"customfit/internal/regalloc"
	"customfit/internal/vliw"
)

// Delta compilation: the explorer's stochastic strategies evaluate
// one-parameter neighbors of architectures they have already compiled,
// so almost all backend work is provably repeatable. A deltaState
// caches, per partition class (classKey) of one Prepared kernel, the
// transforms that rewrite the instruction stream (custom ops, min/max
// fusion, cluster partitioning) together with their liveness analysis
// — its dependence skeletons live in the Prepared's skeleton map under
// the same class, so fused and clustered machines reuse them too — then
// keeps a small per-block cache of finished schedules keyed by the
// exact resource parameters each block can observe plus the dynamic
// certificates scheduleBlock records (schedCert). A second, tiny memo
// keyed by the identity of the per-block schedules caches the register
// allocator's verdict, so a fully warm neighbor move performs no
// scheduling and no allocation at all — just cache probes and program
// assembly out of the Scratch arena.
//
// Correctness is by reconstruction, not approximation: a cached block
// is reused only when every architecture parameter the scheduler read
// while building it compares equal (or provably never mattered — see
// blockInfo and schedCert), so the delta path returns bit-identical
// programs to CompilePrepared's first iteration. Anything the delta
// path cannot prove — a spill, a scheduler error, a pressure-bound
// block under a different budget — falls back to the full driver.

// blockInfo records which architecture parameters a block's
// instructions can observe during scheduling. A parameter no
// instruction reads cannot affect the block's schedule, so cached
// entries ignore it when matching.
type blockInfo struct {
	hasALU bool // any op occupying an ALU issue slot (incl. mul, xmov)
	hasMul bool // any multiply (reads MULsPC)
	hasL2  bool // any L2 access (reads L2PathsPC/L2Ports/L2Lat, and the
	// skeleton's latency/occupancy edges depend on L2Lat)
}

// blockEntry is one cached block schedule: the exact parameters it was
// built under, the certificates that extend its validity (schedCert),
// and the finished immutable schedule.
type blockEntry struct {
	id      uint32 // state-unique, never reused (allocMemo identity)
	aluPC   int
	mulPC   int
	l2Lat   int
	l2Ports int
	capEff  int // effective (clamped) live-value budget
	budget  int // per-cycle ready-scan budget
	cert    schedCert
	sb      *vliw.Block
}

// allocEntry memoizes one successful register allocation over a
// particular combination of cached block schedules (identified by
// entry ids). maxPhys is the highest physical register the coloring
// used: any capacity above both maxLive and maxPhys reproduces the
// identical allocation, because the lowest-free-register search never
// consults capacity below the registers it actually assigns.
type allocEntry struct {
	ids     []uint32
	maxLive []int
	assign  []int
	maxPhys int
}

const (
	// deltaBlockEntries caps cached schedules per block per state; the
	// ring evicts round-robin. Results never depend on cache contents,
	// only time does, so the bound is purely a memory ceiling for
	// full-space sweeps.
	deltaBlockEntries = 8
	// deltaAllocEntries caps memoized allocation verdicts per state.
	deltaAllocEntries = 8
)

// deltaState caches the partition class's compile artifacts. The
// partitioned clone, placement, liveness and block infos are immutable
// after the once; the schedule/alloc caches are mutex-guarded. Safe
// for concurrent use by many workers.
type deltaState struct {
	once sync.Once
	g    *ir.Func
	pl   *Placement
	lv   *opt.Liveness
	info []blockInfo

	mu       sync.Mutex
	nextID   uint32
	blocks   [][]blockEntry
	blockPos []int
	allocs   []allocEntry
	allocPos int
}

// delta returns the state for partition class key (arch's), building
// it on first use (once per class, off the cache lock).
func (p *Prepared) delta(key classKey, arch machine.Arch) *deltaState {
	p.mu.Lock()
	if p.deltas == nil {
		p.deltas = make(map[classKey]*deltaState)
	}
	ds := p.deltas[key]
	if ds == nil {
		ds = &deltaState{}
		p.deltas[key] = ds
	}
	p.mu.Unlock()
	ds.once.Do(func() { ds.build(p.F, arch) })
	return ds
}

// build replays exactly what CompilePrepared's first iteration does to
// the instruction stream for this class: clone, optionally rewrite
// custom ops and fuse min/max, partition. The clone keeps every
// per-compile mutation off the shared Prepared (Partition stamps
// clusters in place, and ComputeLiveness recomputes the CFG).
func (ds *deltaState) build(src *ir.Func, arch machine.Arch) {
	work := src.Clone()
	if !arch.Ops.Empty() {
		ops.Rewrite(work, arch.Ops)
	}
	if arch.MinMax {
		FuseMinMax(work)
	}
	if arch.Clusters <= 1 {
		ds.g = work
		ds.pl = Partition(work, arch)
	} else {
		ds.g, ds.pl = PartitionClone(work, arch)
	}
	ds.lv = opt.ComputeLiveness(ds.g)
	ds.info = make([]blockInfo, len(ds.g.Blocks))
	ds.blocks = make([][]blockEntry, len(ds.g.Blocks))
	ds.blockPos = make([]int, len(ds.g.Blocks))
	for i, b := range ds.g.Blocks {
		bi := &ds.info[i]
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpMul:
				bi.hasALU, bi.hasMul = true, true
			case ir.OpXMov:
				bi.hasALU = true
			case ir.OpLoad, ir.OpStore:
				if in.Mem.Space != ir.L1 {
					bi.hasL2 = true
				}
			case ir.OpFused:
				// Custom ops issue on the per-cluster custom unit: fixed
				// one-per-cycle throughput and a spec-carried latency, so
				// they observe no matchable architecture parameter.
			case ir.OpBr, ir.OpCBr, ir.OpRet, ir.OpNop:
			default: // plain ALU class, mirroring resources.tryPlace
				bi.hasALU = true
			}
		}
	}
}

// deltaParams are the arch-derived values a cached block entry is
// matched against.
type deltaParams struct {
	aluPC   int
	mulPC   int
	l2Lat   int
	l2Ports int
	capEff  int
	budget  int
}

// lookup returns a cached schedule for block bi valid under p, or nil.
// The hit rule mirrors the scheduler's parameter reads: a parameter is
// compared only when the block can observe it, and the budget/scan
// limits match either exactly (when the recorded run hit them) or by
// dominance over the recorded certificates (when it provably never
// did). The schedule block is immutable, so it is safe to share across
// workers and programs after the lock is dropped.
func (ds *deltaState) lookup(bi int, p deltaParams) (*vliw.Block, uint32, bool) {
	info := ds.info[bi]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for i := range ds.blocks[bi] {
		e := &ds.blocks[bi][i]
		if info.hasALU && e.aluPC != p.aluPC {
			continue
		}
		if info.hasMul && e.mulPC != p.mulPC {
			continue
		}
		if info.hasL2 && (e.l2Lat != p.l2Lat || e.l2Ports != p.l2Ports) {
			continue
		}
		if e.cert.pressureBound {
			if e.capEff != p.capEff {
				continue
			}
		} else if p.capEff < e.cert.maxPressure {
			continue
		}
		if e.cert.scanBound {
			if e.budget != p.budget {
				continue
			}
		} else if p.budget < e.cert.maxScan {
			continue
		}
		return e.sb, e.id, true
	}
	return nil, 0, false
}

// insert records a freshly scheduled block, evicting round-robin past
// the per-block cap, and returns the entry's id.
func (ds *deltaState) insert(bi int, p deltaParams, cert schedCert, sb *vliw.Block) uint32 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.nextID++
	e := blockEntry{
		id: ds.nextID, aluPC: p.aluPC, mulPC: p.mulPC,
		l2Lat: p.l2Lat, l2Ports: p.l2Ports, capEff: p.capEff,
		budget: p.budget, cert: cert, sb: sb,
	}
	if len(ds.blocks[bi]) < deltaBlockEntries {
		ds.blocks[bi] = append(ds.blocks[bi], e)
	} else {
		ds.blocks[bi][ds.blockPos[bi]] = e
		ds.blockPos[bi] = (ds.blockPos[bi] + 1) % deltaBlockEntries
	}
	return e.id
}

// allocLookup returns a memoized allocation (peak pressure, physical
// assignment) for this exact combination of block schedules at the
// given per-cluster capacity, or ok=false.
func (ds *deltaState) allocLookup(ids []uint32, capacity int) (maxLive, assign []int, ok bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
outer:
	for i := range ds.allocs {
		ae := &ds.allocs[i]
		if len(ae.ids) != len(ids) || ae.maxPhys >= capacity {
			continue
		}
		for j := range ids {
			if ae.ids[j] != ids[j] {
				continue outer
			}
		}
		for _, m := range ae.maxLive {
			if m > capacity {
				continue outer
			}
		}
		return ae.maxLive, ae.assign, true
	}
	return nil, nil, false
}

// allocInsert memoizes a successful allocation. All slices are copied:
// the caller's live in scratch arenas.
func (ds *deltaState) allocInsert(ids []uint32, maxLive, assign []int) (ml, as []int) {
	ae := allocEntry{
		ids:     append([]uint32(nil), ids...),
		maxLive: append([]int(nil), maxLive...),
		assign:  append([]int(nil), assign...),
		maxPhys: -1,
	}
	for _, p := range ae.assign {
		if p > ae.maxPhys {
			ae.maxPhys = p
		}
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.allocs) < deltaAllocEntries {
		ds.allocs = append(ds.allocs, ae)
	} else {
		ds.allocs[ds.allocPos] = ae
		ds.allocPos = (ds.allocPos + 1) % deltaAllocEntries
	}
	return ae.maxLive, ae.assign
}

// CompilePreparedDelta is CompilePrepared routed through the delta
// cache: it attempts the cheap one-iteration reconstruction and falls
// back to the full driver whenever the delta path cannot prove the
// result (spills, scheduler errors, unprovable reuse). Results are
// bit-identical to CompilePrepared in every case.
//
// The returned Result's Program shell, block table and blame buffer
// live in sc's arenas when the delta path succeeds: the Result is
// valid only until the next compile through the same Scratch. Callers
// that retain programs should use CompilePrepared.
func CompilePreparedDelta(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if sc == nil {
		sc = NewScratch()
	}
	if res := compileDelta(sp, prep, arch, sc); res != nil {
		return res, nil
	}
	obs.GetCounter("sched.delta_fallbacks").Inc()
	return CompilePrepared(sp, prep, arch, sc)
}

// compileDelta attempts the delta-path compile of a validated arch,
// returning nil when the full driver must run instead: the program
// needs spill iterations, or scheduling failed (the full driver
// reproduces the identical error with its own wrapping).
func compileDelta(sp *obs.Span, prep *Prepared, arch machine.Arch, sc *Scratch) *Result {
	cls := classOf(arch)
	ds := prep.delta(cls, arch)
	params := deltaParams{
		aluPC:   arch.ALUsPC(),
		mulPC:   arch.MULsPC(),
		l2Lat:   arch.L2Lat,
		l2Ports: arch.L2Ports,
		budget:  8 * (arch.ALUs + arch.L2Ports + arch.Clusters + 4),
	}
	capRaw := arch.RegsPC() - pressureReserve
	params.capEff = capRaw
	if params.capEff < 3 {
		params.capEff = 3
	}

	csp := obs.Under(sp, "sched.delta")
	if csp != nil {
		csp.Str("kernel", prep.F.Name).Str("arch", arch.String())
		defer csp.End()
	}

	blame := growInt(&sc.blame, ds.g.NumRegs())
	blocks := sc.progBlocks[:0]
	ids := sc.entryIDs[:0]
	var skels []*ddg.Skeleton
	hits := 0
	for bi := range ds.g.Blocks {
		sb, id, ok := ds.lookup(bi, params)
		if !ok {
			if skels == nil {
				skels = prep.skeletons(cls, ds.g, arch)
			}
			fresh, cert, err := scheduleBlock(ds.g, ds.g.Blocks[bi], arch, ds.pl, ds.lv, capRaw, blame, false, skels[bi], sc)
			if err != nil {
				return nil
			}
			sb, id = fresh, ds.insert(bi, params, cert, fresh)
		} else {
			hits++
		}
		blocks = append(blocks, sb)
		ids = append(ids, id)
	}
	sc.progBlocks = blocks[:0]
	sc.entryIDs = ids[:0]
	obs.GetCounter("sched.delta_block_hits").Add(int64(hits))
	obs.GetCounter("sched.delta_block_misses").Add(int64(len(blocks) - hits))

	prog := &sc.prog
	*prog = vliw.Program{
		Arch:       arch,
		F:          ds.g,
		Blocks:     blocks,
		RegCluster: ds.pl.RegCluster,
		Blame:      blame,
	}

	capacity := arch.RegsPC()
	maxLive, assign, ok := ds.allocLookup(ids, capacity)
	if !ok {
		ra := regalloc.AllocateReuse(csp, prog, ds.lv, sc.RA)
		if !ra.Fits {
			return nil
		}
		maxLive, assign = ds.allocInsert(ids, ra.MaxLive, ra.Assign)
	} else {
		obs.GetCounter("sched.delta_alloc_hits").Inc()
	}
	prog.Spills = 0
	prog.MaxLive = maxLive
	prog.PhysAssign = assign
	if csp != nil {
		csp.Int("block_hits", int64(hits)).Int("blocks", int64(len(blocks)))
	}
	res := &sc.result
	*res = Result{Prog: prog, Spilled: 0, Iterations: 1}
	return res
}
