package sched

import (
	"sync"

	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
)

// Prepared wraps an optimized+unrolled kernel with a cache of the
// architecture-independent pre-scheduling artifacts that every backend
// run over the same kernel would otherwise rebuild: the per-block
// dependence skeletons and latency-weighted critical-path heights.
//
// The dependence rules read exactly one architecture parameter — the
// Level-2 latency (ddg.Latency / ddg.Occupancy) — so skeletons are
// cached per L2 latency class and shared by every architecture in the
// class. The cached skeletons describe F's pristine blocks; the compile
// driver only consults them while the working copy is still
// instruction-for-instruction identical to F (first spill iteration,
// single cluster, no custom-op rewriting, no min/max fusion).
//
// A Prepared is immutable after construction apart from the internal
// cache and is safe for concurrent use by many workers.
type Prepared struct {
	F *ir.Func

	mu     sync.Mutex
	skels  map[int]*skelSet         // L2 latency class -> per-block skeletons
	deltas map[deltaKey]*deltaState // partition class -> delta-compile cache

	// Per-block operation-class tallies for LowerBound, built once on
	// first use (architecture-independent; see bound.go).
	countsOnce sync.Once
	counts     []opCounts
}

// skelSet carries per-key once semantics so two workers racing on a
// cold latency class build it exactly once without holding the cache
// lock during construction.
type skelSet struct {
	once   sync.Once
	blocks []*ddg.Skeleton
}

// NewPrepared wraps an optimized kernel for repeated compilation. The
// caller must not mutate f afterwards.
func NewPrepared(f *ir.Func) *Prepared {
	return &Prepared{F: f}
}

// skeletons returns the per-block dependence skeletons for arch's
// latency class, building them on first use.
func (p *Prepared) skeletons(arch machine.Arch) []*ddg.Skeleton {
	p.mu.Lock()
	if p.skels == nil {
		p.skels = make(map[int]*skelSet)
	}
	s := p.skels[arch.L2Lat]
	if s == nil {
		s = &skelSet{}
		p.skels[arch.L2Lat] = s
	}
	p.mu.Unlock()
	s.once.Do(func() {
		s.blocks = make([]*ddg.Skeleton, len(p.F.Blocks))
		for i, b := range p.F.Blocks {
			s.blocks[i] = ddg.BuildSkeleton(b, arch)
		}
	})
	return s.blocks
}
