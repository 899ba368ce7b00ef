package sched

import (
	"customfit/internal/ir"
	"customfit/internal/regalloc"
	"customfit/internal/vliw"
)

// Scratch is a per-worker arena of reusable scheduling and allocation
// buffers. One compile's transient state — ready heaps, per-cycle
// resource tables, liveness bitsets, the allocator's segment builders —
// dominates the backend's allocation profile when the explorer runs
// hundreds of compiles per architecture class, so workers keep one
// Scratch each and thread it through CompilePrepared.
//
// A Scratch is NOT safe for concurrent use; share Prepared kernels
// across workers, never a Scratch.
type Scratch struct {
	// per-block scheduler state (sized to the block's op count)
	unschedPreds []int32
	earliest     []int32
	ready        []int32
	front        []int32
	deferred     []int32

	// per-function pressure state (sized to the register count)
	livePos   []int32
	liveRegs  []ir.Reg
	immortal  []bool
	remaining []int32
	live      []int
	stuck     []bool

	// flattened per-cycle resource tables
	res resources

	// Delta-path program assembly arenas (see delta.go): the blame
	// buffer, the block-pointer table, the entry-id table, and the
	// vliw.Program shell are all owned by the Scratch, so a fully
	// cache-hit neighbor re-evaluation assembles its Result without
	// heap allocation. A Result produced through these arenas is valid
	// only until the next compile that uses the same Scratch.
	blame      []int
	progBlocks []*vliw.Block
	entryIDs   []uint32
	prog       vliw.Program
	result     Result

	// RA is the register allocator's scratch arena, threaded through
	// regalloc.AllocateWith by the compile driver.
	RA *regalloc.Scratch
}

// NewScratch returns an empty scratch arena. Buffers grow on first use
// and are retained across compiles.
func NewScratch() *Scratch {
	return &Scratch{RA: regalloc.NewScratch()}
}

// grow32 returns buf resized to n entries with every entry zeroed,
// reusing capacity, and stores the resized slice back.
func grow32(buf *[]int32, n int) []int32 {
	s := *buf
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// growBool is grow32 for bool buffers.
func growBool(buf *[]bool, n int) []bool {
	s := *buf
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = false
		}
	}
	*buf = s
	return s
}

// growInt is grow32 for int buffers.
func growInt(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}
