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
// dependence skeletons and latency-weighted critical-path heights, and
// the delta-compile state of each partition class (see delta.go).
//
// The dependence rules read exactly one architecture parameter — the
// Level-2 latency (ddg.Latency / ddg.Occupancy) — so skeletons are
// cached per (partition class, L2 latency) and shared by every
// architecture in the class. The pristine class's skeletons describe
// F's own blocks; the cold compile driver only consults them while the
// working copy is still instruction-for-instruction identical to F
// (first spill iteration, single cluster, no custom-op rewriting, no
// min/max fusion).
//
// A Prepared is immutable after construction apart from the internal
// cache and is safe for concurrent use by many workers.
type Prepared struct {
	F *ir.Func

	mu     sync.Mutex
	skels  map[skelKey]*skelSet     // (partition class, L2 latency) -> per-block skeletons
	deltas map[classKey]*deltaState // partition class -> delta-compile cache

	// Per-block operation-class tallies for LowerBound, built once on
	// first use (architecture-independent; see bound.go).
	countsOnce sync.Once
	counts     []opCounts
}

// classKey selects a partition class. Custom-op rewriting, min/max
// fusion and cluster partitioning are the only transforms that rewrite
// the instruction stream before scheduling, and each reads exactly one
// architecture parameter (Ops, MinMax, Clusters). The ops component is
// the enabled-spec content key, so two masks enabling the same specs
// share a class.
type classKey struct {
	clusters int
	minmax   bool
	ops      string
}

// pristineClass is the class whose instruction stream is F's own
// blocks: single cluster (partitioning only stamps cluster 0), no
// fusion, no custom ops.
var pristineClass = classKey{clusters: 1}

func classOf(arch machine.Arch) classKey {
	return classKey{clusters: arch.Clusters, minmax: arch.MinMax, ops: arch.Ops.Key()}
}

// skelKey selects one cached skeleton set.
type skelKey struct {
	class classKey
	l2Lat int
}

// skelSet carries per-key once semantics so two workers racing on a
// cold key build it exactly once without holding the cache lock during
// construction.
type skelSet struct {
	once   sync.Once
	blocks []*ddg.Skeleton
}

// NewPrepared wraps an optimized kernel for repeated compilation. The
// caller must not mutate f afterwards.
func NewPrepared(f *ir.Func) *Prepared {
	return &Prepared{F: f}
}

// skeletons returns the per-block dependence skeletons of class cls at
// arch's L2 latency, building them from f on first use. f must be the
// class's instruction stream: F for pristineClass (or an
// instruction-identical copy of it), the class's rewritten and
// partitioned clone otherwise.
func (p *Prepared) skeletons(cls classKey, f *ir.Func, arch machine.Arch) []*ddg.Skeleton {
	key := skelKey{class: cls, l2Lat: arch.L2Lat}
	p.mu.Lock()
	if p.skels == nil {
		p.skels = make(map[skelKey]*skelSet)
	}
	s := p.skels[key]
	if s == nil {
		s = &skelSet{}
		p.skels[key] = s
	}
	p.mu.Unlock()
	s.once.Do(func() {
		s.blocks = make([]*ddg.Skeleton, len(f.Blocks))
		for i, b := range f.Blocks {
			s.blocks[i] = ddg.BuildSkeleton(b, arch)
		}
	})
	return s.blocks
}
