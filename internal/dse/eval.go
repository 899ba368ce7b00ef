// Package dse implements the paper's design-space exploration loop
// (Section 2.2): for every candidate architecture, retarget the
// compiler, compile every benchmark at increasing unroll factors until
// the registers spill, measure performance against the baseline
// machine, and feed cost/performance into the constrained selection
// mechanisms of Tables 8-10 and the scatter diagrams of Figures 3-4.
package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
)

// UnrollFactors is the sweep of unroll factors, tried in order until
// the compiler spills (the paper's stopping rule).
var UnrollFactors = []int{1, 2, 4, 8}

// ErrCancelled is returned (wrapped) by context-threaded entry points
// when the caller's context ends before the work completes. It always
// wraps the context's own error, so both
// errors.Is(err, dse.ErrCancelled) and
// errors.Is(err, context.Canceled) (or DeadlineExceeded) hold.
var ErrCancelled = errors.New("dse: cancelled")

// cancelledErr wraps ctx's error in ErrCancelled.
func cancelledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
}

// Evaluation is one (benchmark, architecture) measurement.
type Evaluation struct {
	Arch    machine.Arch
	Bench   string
	Unroll  int     // unroll factor that produced the best time
	Cycles  int64   // simulated-equivalent cycles on the reference workload
	Time    float64 // Cycles × cycle-time derating
	Speedup float64 // baseline time / Time (filled by the explorer)
	Spilled int     // registers spilled at the chosen unroll
	Failed  bool    // no unroll factor compiled (never expected at u=1)
	// Cancelled marks an evaluation abandoned because the caller's
	// context ended. Cancelled work is not a compile failure: Failed
	// stays false, and the explorer accounts it separately.
	Cancelled bool `json:",omitempty"`
}

// prepared caches the architecture-independent compilation artifacts of
// one benchmark at one unroll factor: the optimized+unrolled kernel
// (wrapped with its shared pre-scheduling skeleton cache) and the
// per-block execution counts on the reference workload (block visit
// counts do not depend on the target architecture). The once gives the
// entry singleflight semantics: concurrent workers racing on a cold
// (benchmark, unroll) key build it exactly once, off the cache lock.
type prepared struct {
	once   sync.Once
	kernel *sched.Prepared
	visits map[string]int64
	err    error
}

// fnEntry is the once-guarded lowered IR of one benchmark.
type fnEntry struct {
	once sync.Once
	fn   *ir.Func
	err  error
}

// Evaluator compiles benchmarks for architectures with caching.
type Evaluator struct {
	// Width is the reference workload width in pixels.
	Width int
	// Seed generates the reference workload.
	Seed int64
	// Cycle is the cycle-time model applied to raw cycles.
	Cycle machine.CycleModel
	// Cache is the evaluator's result store: one sweep per (kernel
	// class, backend signature), content-addressed by hash(kernel
	// source, unroll policy, compiler fingerprint, reference workload)
	// × backend signature (see internal/evcache, archSig and
	// docs/PERFORMANCE.md). NewEvaluator attaches a memory-only cache,
	// which shares one sweep across every architecture of a signature
	// class; replace it (never with nil) by a persistent or
	// fleet-tiered cache to share sweeps across processes as well — a
	// warm cache makes a re-run of the full sweep near-instant.
	Cache *evcache.Cache

	// compile is the backend entry point of a real sweep:
	// sched.CompilePreparedDelta, or sched.CompilePrepared where a test
	// or benchmark needs the cold driver (bit-identical either way).
	compile func(*obs.Span, *sched.Prepared, machine.Arch, *sched.Scratch) (*sched.Result, error)

	mu    sync.Mutex
	cache map[string]map[int]*prepared // bench -> unroll -> artifacts
	fns   map[string]*fnEntry          // bench -> lowered IR
	keys  map[string]string            // bench -> kernel-class hash

	// Compilations counts backend runs (the paper's Table 3 "# runs").
	// Evaluations served by Cache count the stored sweep's runs: the
	// paper's metric is logical compilations, not deduplicated work
	// (dse.compile_memo_hits tracks the dedup).
	Compilations atomic.Int64

	// Cumulative phase time (nanoseconds), attributing wall time to
	// compile (backend runs) vs simulate (reference interpreter runs).
	// Summed across workers, so totals can exceed wall time.
	compileNS  atomic.Int64
	simulateNS atomic.Int64
}

// PhaseTimes reports cumulative time spent compiling and simulating
// (reference runs) across all evaluations so far.
func (e *Evaluator) PhaseTimes() (compile, simulate time.Duration) {
	return time.Duration(e.compileNS.Load()), time.Duration(e.simulateNS.Load())
}

// NewEvaluator returns an evaluator with the standard reference
// workload (96 pixels, seed 1) and a memory-only result store.
func NewEvaluator() *Evaluator {
	mem, _ := evcache.Open("") // memory-only: cannot fail
	return &Evaluator{
		Width:   96,
		Seed:    1,
		Cycle:   machine.DefaultCycleModel,
		Cache:   mem,
		compile: sched.CompilePreparedDelta,
		cache:   map[string]map[int]*prepared{},
		fns:     map[string]*fnEntry{},
	}
}

// compileFn returns the lowered IR for b, building it exactly once even
// under concurrent callers.
func (e *Evaluator) compileFn(sp *obs.Span, b *bench.Benchmark) (*ir.Func, error) {
	e.mu.Lock()
	ent, ok := e.fns[b.Name]
	if !ok {
		ent = &fnEntry{}
		e.fns[b.Name] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.fn, ent.err = b.CompileSpan(sp)
	})
	return ent.fn, ent.err
}

// prepare returns (cached) prepared IR and visit counts for b at unroll
// u, recording frontend/opt/reference-run telemetry under sp on a cache
// miss. The per-key once means two workers can never duplicate a
// frontend compile or reference run of the same (benchmark, unroll).
func (e *Evaluator) prepare(sp *obs.Span, b *bench.Benchmark, u int) *prepared {
	e.mu.Lock()
	byU, ok := e.cache[b.Name]
	if !ok {
		byU = map[int]*prepared{}
		e.cache[b.Name] = byU
	}
	p, ok := byU[u]
	if !ok {
		p = &prepared{}
		byU[u] = p
	}
	e.mu.Unlock()
	p.once.Do(func() {
		fn, err := e.compileFn(sp, b)
		if err != nil {
			p.err = err
			return
		}
		g, err := opt.PrepareSpan(sp, fn, u)
		if err != nil {
			p.err = err
			return
		}
		p.kernel = sched.NewPrepared(g)
		vsp := obs.Under(sp, "sim.reference").Str("bench", b.Name).Int("unroll", int64(u))
		t0 := time.Now()
		p.visits, p.err = e.countVisits(b, g)
		e.simulateNS.Add(int64(time.Since(t0)))
		vsp.End()
	})
	return p
}

// countVisits interprets the prepared IR over the reference workload
// and records how many times each block executes.
func (e *Evaluator) countVisits(b *bench.Benchmark, g *ir.Func) (map[string]int64, error) {
	c := b.NewCase(e.Width, e.Seed).Clone()
	env := c.Env()
	env.Visits = map[string]int64{}
	if _, err := ir.Interp(g, env); err != nil {
		return nil, fmt.Errorf("dse: reference run of %s: %w", b.Name, err)
	}
	return env.Visits, nil
}

// Evaluate compiles benchmark b for arch, sweeping unroll factors until
// the compiler spills, and returns the best-performing compilation.
func (e *Evaluator) Evaluate(b *bench.Benchmark, arch machine.Arch) Evaluation {
	return e.EvaluateCtx(context.Background(), b, arch)
}

// EvaluateCtx is Evaluate under a context: a cancelled ctx abandons the
// sweep between backend compiles and returns an Evaluation marked
// Cancelled (never Failed). Results are identical to Evaluate whenever
// ctx stays live.
func (e *Evaluator) EvaluateCtx(ctx context.Context, b *bench.Benchmark, arch machine.Arch) Evaluation {
	return e.EvaluateScratchCtx(ctx, b, arch, nil)
}

// EvaluateScratch is Evaluate threading a per-worker scratch arena
// through the backend (see sched.Scratch; pass nil to allocate one per
// compile).
func (e *Evaluator) EvaluateScratch(b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) Evaluation {
	return e.EvaluateScratchCtx(context.Background(), b, arch, sc)
}

// EvaluateScratchCtx is EvaluateScratch under a context (see
// EvaluateCtx for the cancellation contract).
func (e *Evaluator) EvaluateScratchCtx(ctx context.Context, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) Evaluation {
	// StartSpanCtx parents the evaluation under the exploration's span
	// when one rides ctx (each evaluation forks its own track).
	esp := obs.StartSpanCtx(ctx, "evaluate")
	if esp != nil {
		esp.Str("bench", b.Name).Str("arch", arch.String())
		defer esp.End()
	}
	sw, err := e.sweep(ctx, esp, b, arch, sc)
	ev := Evaluation{Arch: arch, Bench: b.Name, Cancelled: err != nil}
	if err == nil {
		ev.Unroll, ev.Cycles, ev.Spilled, ev.Failed = sw.Unroll, sw.Cycles, sw.Spilled, sw.Failed
		if !sw.Failed {
			// The derate is the only architecture-specific factor the
			// backend result does not cover; it is constant and positive
			// across the sweep, so the min-cycles sweep winner is also
			// the min-time winner.
			ev.Time = float64(sw.Cycles) * e.Cycle.Derate(arch)
		}
	}
	if esp != nil {
		esp.Int("unroll", int64(ev.Unroll)).Int("cycles", ev.Cycles)
	}
	if ev.Failed {
		obs.GetCounter("dse.eval_failures").Inc()
	}
	if ev.Cancelled {
		obs.GetCounter("dse.eval_cancelled").Inc()
	}
	return ev
}

// sweep resolves one evaluation through the result store: a single
// DoErr per (kernel class, backend signature), so every architecture of
// a signature class shares one real sweep — within this run and, with a
// persistent or fleet cache attached, across runs and processes. A hit
// (including a wait on another worker's in-flight sweep) stands in for
// this arrangement's compilations: the stored sweep's runs are
// re-counted as logical runs (the paper's Table 3 accounting), so
// Results and Stats are identical whether the store is cold, warm or
// shared. A cancelled sweep aborts the compute, so it is never stored
// or handed to coalesced waiters, which recompute it themselves.
func (e *Evaluator) sweep(ctx context.Context, esp *obs.Span, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) (evcache.Entry, error) {
	key := CacheKey(e.kernelClass(b), arch)
	sw, hit, err := e.Cache.DoErr(b.Name, key, func() (evcache.Entry, error) {
		return e.runSweep(ctx, esp, b, arch, sc)
	})
	if err == nil && hit {
		e.Compilations.Add(sw.Runs)
		obs.GetCounter("dse.compiles").Add(sw.Runs)
		obs.GetCounter("dse.compile_memo_hits").Inc()
	}
	return sw, err
}

// KernelClass returns a benchmark's content-addressed kernel-class
// hash for a reference workload of the given width and seed:
// everything a sweep result depends on besides the backend signature —
// the kernel source, the unroll policy, the compiler fingerprint
// (backend version + latency constants + the frontend/opt pipeline
// version), and the reference workload whose visit counts weight the
// cycle totals. Cost and cycle-time models are deliberately excluded:
// they are applied outside the backend, so retuning them never
// invalidates cached sweeps. Exported so the distributed coordinator
// can address cache entries without an Evaluator (warm-up shipping).
func KernelClass(b *bench.Benchmark, width int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "kernel=%s\x00%s\x00unroll=%v\x00%s\x00prep-v%d\x00workload=%dx seed %d",
		b.Name, b.Source, UnrollFactors, sched.Fingerprint(), prepPipelineVersion, width, seed)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// CacheKey returns the evcache key of one architecture within a kernel
// class (KernelClass); the cache shard name is the benchmark name.
// This is the fleet-wide content address: every layer — the evaluator,
// the serving endpoints, the coordinator's warm-up pushes — derives
// exactly this key, which is what makes "compile anything at most once
// across the whole fleet" possible.
func CacheKey(kernelClass string, a machine.Arch) string {
	return kernelClass + ":" + sigOf(a).key()
}

// kernelClass memoizes KernelClass for this evaluator's workload.
func (e *Evaluator) kernelClass(b *bench.Benchmark) string {
	e.mu.Lock()
	if k, ok := e.keys[b.Name]; ok {
		e.mu.Unlock()
		return k
	}
	e.mu.Unlock()
	k := KernelClass(b, e.Width, e.Seed)
	e.mu.Lock()
	if e.keys == nil {
		e.keys = map[string]string{}
	}
	e.keys[b.Name] = k
	e.mu.Unlock()
	return k
}

// prepPipelineVersion fingerprints the architecture-independent
// preparation pipeline (frontend lowering, opt passes, unrolling,
// reference interpretation). Bump it when any of those change
// observable IR or visit counts; cached sweeps self-invalidate.
const prepPipelineVersion = 1

// CacheCovers reports whether the result store already holds an entry
// for every (b, arch) pair — in which case an explorer can skip the
// prepare warm-up (frontend compile plus reference run) entirely, the
// dominant cost of a fully warm re-run.
func (e *Evaluator) CacheCovers(b *bench.Benchmark, archs []machine.Arch) bool {
	kc := e.kernelClass(b)
	for _, a := range archs {
		if !e.Cache.Contains(b.Name, CacheKey(kc, a)) {
			return false
		}
	}
	return true
}

// LowerBoundCycles returns an admissible lower bound on the unroll
// sweep's best cycle count for b on arch, without compiling: for each
// unroll factor it sums sched.LowerBound's per-block bounds weighted
// by the reference workload's block visit counts, and takes the
// minimum across factors (the sweep keeps its own minimum over a
// subset of those factors, so the bound can never exceed the real
// result). ok is false when the benchmark cannot be prepared at all.
func (e *Evaluator) LowerBoundCycles(b *bench.Benchmark, arch machine.Arch) (bound int64, ok bool) {
	if !arch.Ops.Empty() {
		// The per-block bounds are computed on the pristine
		// (pre-rewrite) blocks; a custom-op rewrite can shorten the
		// critical path below them, so no admissible bound exists for
		// op-enabled architectures. SpeedupBound turns this into "never
		// prune".
		return 0, false
	}
	best := int64(-1)
	for _, u := range UnrollFactors {
		p := e.prepare(nil, b, u)
		if p.err != nil {
			break
		}
		lbs := sched.LowerBound(p.kernel, arch)
		var total int64
		for i, blk := range p.kernel.F.Blocks {
			total += int64(lbs[i]) * p.visits[blk.Name]
		}
		if best < 0 || total < best {
			best = total
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// SpeedupBound builds an admissible upper bound on the
// speedup-under-cost-cap objective (the cost-capped selector's search
// objective): -Inf over the cap, else baselineTime divided by the
// smallest time the architecture could possibly achieve
// (LowerBoundCycles × its exact cycle-time derate). Since the cycle
// bound never exceeds the real sweep result and the derate is
// architecture-exact, the returned value always ≥ the real speedup —
// so search strategies may prune candidates whose bound cannot beat
// their incumbent without changing what they find (search.Bound).
func (e *Evaluator) SpeedupBound(b *bench.Benchmark, baselineTime float64, cost machine.CostModel, costCap float64) func(machine.Arch) float64 {
	return func(a machine.Arch) float64 {
		if cost.Cost(a) > costCap {
			return math.Inf(-1) // exactly the objective's value: infeasible
		}
		lb, ok := e.LowerBoundCycles(b, a)
		if !ok || lb <= 0 {
			return math.Inf(1) // cannot bound: never prune
		}
		return baselineTime / (float64(lb) * e.Cycle.Derate(a))
	}
}

// runSweep performs the real unroll-until-spill sweep for one
// (benchmark, architecture), returning the signature-invariant result.
// Cancellation is observed between backend compiles (each is
// milliseconds): a cancelled sweep returns promptly with an error
// wrapping ErrCancelled — abandoned work is not a compile failure.
func (e *Evaluator) runSweep(ctx context.Context, esp *obs.Span, b *bench.Benchmark, arch machine.Arch, sc *sched.Scratch) (evcache.Entry, error) {
	sw := evcache.Entry{Failed: true}
	for _, u := range UnrollFactors {
		if ctx.Err() != nil {
			return evcache.Entry{}, cancelledErr(ctx)
		}
		p := e.prepare(esp, b, u)
		if p.err != nil {
			break // unrollable limit reached (op budget etc.)
		}
		t0 := time.Now()
		res, err := e.compile(esp, p.kernel, arch, sc)
		e.compileNS.Add(int64(time.Since(t0)))
		e.Compilations.Add(1)
		sw.Runs++
		obs.GetCounter("dse.compiles").Inc()
		if err != nil {
			if errors.Is(err, sched.ErrNoFit) {
				obs.GetCounter("dse.compile_nofit").Inc()
				break // paper rule: stop at this unroll and all larger
			}
			obs.GetCounter("dse.compile_errors").Inc()
			break
		}
		cycles := res.Prog.StaticCycles(p.visits)
		if sw.Failed || cycles < sw.Cycles {
			sw.Failed = false
			sw.Unroll = u
			sw.Cycles = cycles
			sw.Spilled = res.Spilled
		}
		if res.Spilled > 0 {
			break // spilled: stop considering larger unroll factors
		}
	}
	return sw, nil
}
