package dse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"customfit/internal/bench"
	"customfit/internal/evcache"
	"customfit/internal/machine"
)

// smallCancelExplorer is a fast configuration for the cancellation
// tests: one benchmark over a thin arch slice at a small width. It
// stays cheap enough to run under the race detector, which is the
// point — these tests are in the `make check` -race set.
func smallCancelExplorer() *Explorer {
	e := NewExplorer()
	full := machine.FullSpace()
	var archs []machine.Arch
	for i := 0; i < len(full); i += 31 {
		archs = append(archs, full[i])
	}
	archs = append(archs, machine.Baseline)
	e.Archs = archs
	e.Width = 32
	e.Benchmarks = []*bench.Benchmark{bench.ByName("G")}
	return e
}

func TestEvaluateCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := NewEvaluator()
	ev.Width = 32
	evl := ev.EvaluateCtx(ctx, bench.ByName("G"), machine.Baseline)
	if !evl.Cancelled {
		t.Error("evaluation under a cancelled context not marked Cancelled")
	}
	if evl.Failed {
		t.Error("cancelled evaluation marked Failed: cancellation is not a compile failure")
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := smallCancelExplorer().RunCtx(ctx)
	if res != nil {
		t.Error("cancelled run returned partial results")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("error %v does not wrap ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestRunCtxCancelMidFlight cancels from inside the progress callback —
// so the cancellation provably lands while workers are mid-exploration —
// and requires a prompt ErrCancelled with cancelled work never counted
// as failure.
func TestRunCtxCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := smallCancelExplorer()
	var fired atomic.Bool
	var sawFailedAfterCancel atomic.Bool
	e.Progress = func(p ProgressInfo) {
		if p.Done >= 2 && fired.CompareAndSwap(false, true) {
			cancel()
		}
		if fired.Load() && p.Failed > 0 {
			sawFailedAfterCancel.Store(true)
		}
	}
	res, err := e.RunCtx(ctx)
	if res != nil {
		t.Error("cancelled run returned partial results")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("error %v does not wrap ErrCancelled", err)
	}
	if !fired.Load() {
		t.Fatal("exploration finished before the cancel point — shrink the trigger")
	}
	if sawFailedAfterCancel.Load() {
		t.Error("evaluations abandoned by cancellation were counted as failures")
	}
}

// TestCancelDoesNotPoisonCaches: a cancelled run must leave the
// persistent cache in a state where a subsequent uncancelled run over
// the same cache still produces the uncached results.
func TestCancelDoesNotPoisonCaches(t *testing.T) {
	dir := t.TempDir()

	// Reference: a clean, uncached run.
	ref, err := smallCancelExplorer().Run()
	if err != nil {
		t.Fatal(err)
	}

	// Cancelled run against a fresh persistent cache.
	cache, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := smallCancelExplorer()
	e.Cache = cache
	var fired atomic.Bool
	e.Progress = func(p ProgressInfo) {
		if p.Done >= 2 && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
	if _, err := e.RunCtx(ctx); !errors.Is(err, ErrCancelled) {
		cancel()
		t.Fatalf("cancelled run: %v", err)
	}
	cancel()
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// Uncancelled run over the same (partially filled) cache directory.
	warm, err := evcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := smallCancelExplorer()
	e2.Cache = warm
	res, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	for bi, b := range ref.Benches {
		if res.Benches[bi] != b {
			t.Fatalf("bench lists differ: %v vs %v", res.Benches, ref.Benches)
		}
		for i := range ref.Eval[b] {
			g, w := res.Eval[b][i], ref.Eval[b][i]
			if g.Cancelled {
				t.Fatalf("%s on %v: stale Cancelled evaluation leaked from the aborted run", b, w.Arch)
			}
			if g.Unroll != w.Unroll || g.Cycles != w.Cycles || g.Spilled != w.Spilled ||
				g.Failed != w.Failed || g.Time != w.Time || g.Speedup != w.Speedup {
				t.Fatalf("%s on %v: post-cancel run %+v differs from clean run %+v", b, w.Arch, g, w)
			}
		}
	}
	if res.Stats.Runs != ref.Stats.Runs {
		t.Errorf("logical run count %d after cancelled warm-up, clean run counted %d",
			res.Stats.Runs, ref.Stats.Runs)
	}
	if res.Stats.Cancelled != 0 {
		t.Errorf("completed run reports %d cancelled evaluations", res.Stats.Cancelled)
	}
}
