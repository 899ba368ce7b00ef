package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"customfit/internal/bench"
	"customfit/internal/ddg"
	"customfit/internal/ir"
	"customfit/internal/machine"
	"customfit/internal/obs"
	"customfit/internal/opt"
	"customfit/internal/sched"
	"customfit/internal/serve"
	"customfit/internal/sim"
)

const (
	// Poll backoff: the first poll waits between pollMin/2 and 3*pollMin/2
	// (a per-job dither, so the poll grid does not quantize the measured
	// latency), each later one 1.5x longer, up to pollMax.
	pollMin = time.Millisecond
	pollMax = 5 * time.Millisecond
	// caseWidth is the width of every simulate job's generated case.
	caseWidth = 96
)

type serveSetup struct {
	srv       *serve.Server
	ts        *httptest.Server
	client    *http.Client
	stream    *jobStream
	baseTimes map[string]float64 // fixture time of each benchmark on the baseline
}

func (s *serveSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // a cut-short drain cancels the remaining jobs; nothing to report
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	index     int
	spec      jobSpec
	state     string // terminal job state, "refused" or "lost"
	latencyMS float64
	end       time.Time
	polls     int
	cycles    int64 // simulate jobs
	speedup   float64
	// failed marks a job counted in fail_share; nofit a job answered
	// with the register-pressure no-fit error.
	failed, nofit bool
}

// runServeJobs is a closed loop of one client against an in-process
// cfp-serve with one worker: the client submits its next job from the
// seeded stream only after polling the previous one to a terminal
// state. One client keeps the run off the second CPU, which is left to
// the garbage collector and the HTTP round trips; with nproc clients on
// a two-CPU machine the figures measure the scheduler as much as the
// program, and spread about three times as far between runs.
func runServeJobs(o options) (*outcome, error) {
	var tr *tracer
	if o.trace {
		// Installed before the server starts, so the server records into it.
		tr = startTracer("perfbench.serve-jobs")
		defer tr.stop()
	}
	st, setupS, err := timedSetup(func() (*serveSetup, error) {
		fx, err := loadFixture(fixturePath)
		if err != nil {
			return nil, err
		}
		base := map[string]float64{}
		for _, b := range bench.All() {
			base[b.Name] = fx[fixtureKey(b.Name, machine.Baseline)].Time
		}
		srv := serve.New(serve.Options{Workers: 1})
		ts := httptest.NewServer(srv.Handler())
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		return &serveSetup{srv, ts, client, newJobStream(o.seed), base}, nil
	}, func(s *serveSetup) { s.close() })
	if err != nil {
		return nil, err
	}
	out := &outcome{endToEnd: map[string]float64{"setup_s": setupS}, samples: map[string]int{}}

	// The client runs whole passes over the deck, so every run measures
	// the deck's exact job multiset, and stops at the pass boundary
	// nearest the deadline (after at least one pass).
	deckLen := len(st.stream.deck)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	csp := tr.fork("client")
	var recs []jobRecord
	for passStart := start; ; {
		for k := 0; k < deckLen; k++ {
			i := len(recs)
			rec, problems := st.do(i, st.stream.job(i), csp)
			recs = append(recs, rec)
			for _, p := range problems {
				out.mismatch("job %d (%s %s on %s, unroll %d): %s", i, rec.spec.Kind, rec.spec.Bench, rec.spec.Arch, rec.spec.Unroll, p)
			}
		}
		now := time.Now()
		if now.Add(now.Sub(passStart) / 2).After(deadline) {
			break
		}
		passStart = now
	}
	csp.End()
	st.close()

	var lat, speedups []float64
	refused, polls, nofit := 0, 0, 0
	lastEnd := start
	for _, r := range recs {
		if r.failed {
			out.failed++
		}
		if r.end.IsZero() { // refused, or lost while polling
			if r.state == "refused" {
				refused++
			}
			continue
		}
		lat = append(lat, r.latencyMS)
		polls += r.polls
		if r.nofit {
			nofit++
		}
		if r.end.After(lastEnd) {
			lastEnd = r.end
		}
		if r.speedup > 0 {
			speedups = append(speedups, r.speedup)
		}
	}
	out.attempted = int64(len(recs))
	p50, _ := percentile(lat, 50)
	p95, beyond := percentile(lat, 95)
	out.endToEnd["throughput_per_s"] = ratio(float64(len(lat)), lastEnd.Sub(start).Seconds())
	out.endToEnd["latency_p50_ms"] = p50
	out.endToEnd["latency_p95_ms"] = p95
	out.endToEnd["geomean_speedup"] = geomean(speedups)
	out.endToEnd["fail_share"] = ratio(float64(out.failed), float64(out.attempted))
	out.endToEnd["peak_rss_mb"] = peakRSSMB()
	out.samples["latency_p50_ms"] = len(lat)
	out.samples["latency_p95_ms"] = len(lat)
	fmt.Printf("serve-jobs: %d jobs (%d passes over a %d-job deck) in %.2f s, %d failed, %d beyond p95, %d simulate speedups\n",
		len(recs), len(recs)/deckLen, deckLen, lastEnd.Sub(start).Seconds(), out.failed, beyond, len(speedups))

	if tr != nil {
		serveLayers(out, tr, o, recs, refused, polls, nofit)
	}
	return out, nil
}

// do submits one job and polls it to a terminal state. It returns the
// record and every output-check failure.
func (st *serveSetup) do(i int, spec jobSpec, parent *obs.Span) (rec jobRecord, problems []string) {
	rec = jobRecord{index: i, spec: spec}
	js := parent.Child("job").Str("kind", spec.Kind).Str("bench", spec.Bench).
		Str("arch", spec.Arch.String()).Int("unroll", int64(spec.Unroll))
	defer js.End()
	var reqBody any = serve.SimulateRequest{Bench: spec.Bench, Arch: wireArch(spec.Arch), Unroll: spec.Unroll, Width: caseWidth, Seed: spec.Seed}
	if spec.Kind == "compile" {
		reqBody = serve.CompileRequest{Bench: spec.Bench, Arch: wireArch(spec.Arch), Unroll: spec.Unroll}
	}
	body, _ := json.Marshal(reqBody) // plain strings and ints always marshal
	t0 := time.Now()
	ssp := js.Child("serve.submit")
	req, _ := http.NewRequest(http.MethodPost, st.ts.URL+"/v1/"+spec.Kind, bytes.NewReader(body)) // constant method and a valid URL
	req.Header.Set("Content-Type", "application/json")
	if js != nil {
		req.Header.Set("traceparent", js.Context().TraceParent())
	}
	code, respBody, err := st.roundTrip(req)
	ssp.End()
	switch {
	case err != nil:
		rec.state, rec.failed = "refused", true
		return rec, []string{"submit: " + err.Error()}
	case code == http.StatusServiceUnavailable:
		rec.state, rec.failed = "refused", true
		return rec, nil
	case code != http.StatusAccepted:
		rec.state, rec.failed = "refused", true
		return rec, []string{fmt.Sprintf("submit: HTTP %d: %s", code, respBody)}
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(respBody, &sub); err != nil {
		rec.state, rec.failed = "refused", true
		return rec, []string{"submit response: " + err.Error()}
	}

	var status serve.JobStatus
	dither := splitmix(uint64(i))
	delay := pollMin/2 + time.Duration(dither.next()%uint64(pollMin))
	for {
		psp := js.Child("serve.poll")
		req, _ := http.NewRequest(http.MethodGet, st.ts.URL+"/v1/jobs/"+sub.ID, nil) // constant method and a valid URL
		code, b, err := st.roundTrip(req)
		psp.End()
		rec.polls++
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(b, &status)
		} else if err == nil {
			err = fmt.Errorf("HTTP %d: %s", code, b)
		}
		if err != nil {
			rec.state, rec.failed = "lost", true
			return rec, []string{"poll: " + err.Error()}
		}
		if status.State.Terminal() {
			break
		}
		time.Sleep(delay)
		if delay = delay * 3 / 2; delay > pollMax {
			delay = pollMax
		}
	}
	rec.end = time.Now()
	rec.latencyMS = 1000 * rec.end.Sub(t0).Seconds()
	rec.state = string(status.State)
	js.AdoptRemote(status.Spans)
	return rec, st.classify(&rec, status)
}

func (st *serveSetup) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// classify checks a terminal job's answer. A no-fit error at unroll > 1
// is the paper's stopping rule and counts as answered; at unroll 1 it
// is a failure. Every other failed or cancelled job is a failure too.
func (st *serveSetup) classify(rec *jobRecord, status serve.JobStatus) []string {
	spec := rec.spec
	switch status.State {
	case serve.StateFailed:
		rec.nofit = strings.Contains(status.Error, sched.ErrNoFit.Error())
		rec.failed = !rec.nofit || spec.Unroll == 1
		return nil
	case serve.StateCancelled:
		rec.failed = true
		return nil
	}
	if spec.Kind == "compile" {
		var r serve.CompileResult
		if err := json.Unmarshal(status.Result, &r); err != nil {
			return []string{"compile result: " + err.Error()}
		}
		if r.Unroll != spec.Unroll || r.Arch != spec.Arch.String() || r.Bundles <= 0 {
			return []string{fmt.Sprintf("compile result for unroll %d on %s: unroll %d arch %s bundles %d", spec.Unroll, spec.Arch, r.Unroll, r.Arch, r.Bundles)}
		}
		return nil
	}
	var r serve.SimulateResult
	if err := json.Unmarshal(status.Result, &r); err != nil {
		return []string{"simulate result: " + err.Error()}
	}
	rec.cycles = r.Cycles
	if r.Time > 0 {
		rec.speedup = st.baseTimes[spec.Bench] / r.Time
	}
	if !r.Verified || r.Mismatches != 0 {
		return []string{fmt.Sprintf("simulate result not verified: verified %v, %d mismatches", r.Verified, r.Mismatches)}
	}
	return nil
}

// serveLayers fills the per-layer metrics of a traced serve-jobs run.
// The server's spans (returned with each traced job) give the frontend,
// opt, backend and simulator; an in-process replay of the answered jobs
// through each layer's public functions gives the rest, and the
// server's overhead over the same work.
func serveLayers(out *outcome, tr *tracer, o options, recs []jobRecord, refused, polls, nofit int) {
	m := map[string]float64{}
	l := newLedger(tr.col.Events())
	commonLayers(m, l, tr.counters())
	rep := replay(out, recs, time.Duration(o.seconds)*time.Second/3)
	rl := newLedger(rep.col.Events())

	jobs := float64(len(recs) - refused)
	m["ir.interp_ms"] = rl.sumMS("ir.Interp")
	m["ddg.skeleton_ms"] = rl.sumMS("ddg.BuildSkeleton")
	m["bench.golden_ms"] = rl.sumMS("bench.Golden")
	m["opt.instrs_out"] = float64(rep.instrs)
	m["vliw.bundles"] = float64(rep.bundles)
	m["sched.nofit"] = float64(nofit)
	m["serve.submit_ms"] = ratio(l.sumMS("serve.submit"), float64(l.count("serve.submit")))
	m["serve.overhead_ms"] = median(rep.overheadMS)
	m["serve.rejected"] = float64(refused)
	m["serve.polls_per_job"] = ratio(float64(polls), jobs)
	out.perLayer = m
	out.layers = append(l.table(""), rl.table("replay/")...)
	out.notes = append(out.notes, fmt.Sprintf("replayed %d of %d answered jobs in-process for the replay/ rows, ddg, ir, bench and serve.overhead_ms", rep.jobs, len(recs)-refused))
	out.traces = tr.write(o.outdir, "serve-jobs", o.seed, rep.col)
}

type replayResult struct {
	col        *obs.Collector
	jobs       int
	instrs     int
	bundles    int
	overheadMS []float64
}

// replay re-runs the answered jobs in-process, in stream order, on
// nproc workers until budget runs out, recording into a collector of
// its own so the server's ledger stays apart. Each job runs the
// server's steps (frontend, opt.Prepare, sched.CompilePrepared and
// Validate, and for simulate jobs sim.Run and the golden compare),
// then ddg.BuildSkeleton over the prepared blocks and, for simulate
// jobs, ir.Interp of the prepared kernel checked against the golden
// model. Its answers must match the server's.
func replay(out *outcome, recs []jobRecord, budget time.Duration) *replayResult {
	rep := &replayResult{col: obs.NewCollector()}
	obs.Install(rep.col)
	defer obs.Install(nil)
	root := obs.StartSpan("perfbench.replay")
	defer root.End()
	stop := time.Now().Add(budget)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsp := root.Fork("worker")
			defer wsp.End()
			sc := sched.NewScratch()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				r := recs[i]
				if r.state != string(serve.StateDone) && !r.nofit {
					continue
				}
				res := replayJob(r, wsp, sc)
				mu.Lock()
				rep.jobs++
				rep.instrs += res.instrs
				rep.bundles += res.bundles
				rep.overheadMS = append(rep.overheadMS, r.latencyMS-res.inProcessMS)
				for _, p := range res.problems {
					out.mismatch("replay of job %d (%s %s on %s, unroll %d): %s", r.index, r.spec.Kind, r.spec.Bench, r.spec.Arch, r.spec.Unroll, p)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return rep
}

type replayed struct {
	instrs, bundles int
	inProcessMS     float64
	problems        []string
}

func replayJob(r jobRecord, parent *obs.Span, sc *sched.Scratch) (res replayed) {
	spec := r.spec
	b := bench.ByName(spec.Bench)
	js := parent.Child("replay.job").Str("kind", spec.Kind).Str("bench", spec.Bench).Str("arch", spec.Arch.String())
	defer js.End()
	fail := func(format string, args ...any) replayed {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
		return res
	}

	t0 := time.Now()
	sp := js.Child("bench.Compile")
	fn, err := b.CompileSpan(sp)
	sp.End()
	if err != nil {
		return fail("frontend: %v", err)
	}
	sp = js.Child("opt.Prepare")
	g, err := opt.PrepareSpan(sp, fn, spec.Unroll)
	sp.End()
	if err != nil {
		return fail("opt.Prepare: %v", err)
	}
	res.instrs = g.NumInstrs()
	sp = js.Child("sched.CompilePrepared")
	cr, err := sched.CompilePrepared(sp, sched.NewPrepared(g), spec.Arch, sc)
	if err == nil {
		err = sched.Validate(cr.Prog)
	}
	sp.End()
	switch {
	case r.nofit && !errors.Is(err, sched.ErrNoFit):
		return fail("the server answered no-fit, the replay got %v", err)
	case r.nofit:
		res.inProcessMS = 1000 * time.Since(t0).Seconds()
		return res
	case err != nil:
		return fail("compile: %v", err)
	}
	res.bundles = cr.Prog.BundleCount()
	var c *bench.Case
	var want map[string][]int32
	if spec.Kind == "simulate" {
		c = b.NewCase(caseWidth, spec.Seed)
		run := c.Clone()
		sp = js.Child("sim.Run")
		st, err := sim.RunCtx(obs.ContextWithSpan(context.Background(), sp), cr.Prog, run.Env())
		sp.End()
		if err != nil {
			return fail("sim.Run: %v", err)
		}
		if st.Cycles != r.cycles {
			res.problems = append(res.problems, fmt.Sprintf("%d cycles, the server simulated %d", st.Cycles, r.cycles))
		}
		sp = js.Child("bench.Golden")
		want = c.Golden()
		n := countMismatches(c.Outputs, want, run.Mem)
		sp.End()
		if n > 0 {
			res.problems = append(res.problems, fmt.Sprintf("simulated outputs differ from the golden model in %d words", n))
		}
	}
	res.inProcessMS = 1000 * time.Since(t0).Seconds()

	sp = js.Child("ddg.BuildSkeleton")
	for _, blk := range g.Blocks {
		ddg.BuildSkeleton(blk, spec.Arch)
	}
	sp.End()
	if c != nil {
		run := c.Clone()
		sp = js.Child("ir.Interp")
		_, err := ir.Interp(g, run.Env())
		sp.End()
		if err != nil {
			return fail("ir.Interp: %v", err)
		}
		if n := countMismatches(c.Outputs, want, run.Mem); n > 0 {
			res.problems = append(res.problems, fmt.Sprintf("interpreted outputs differ from the golden model in %d words", n))
		}
	}
	return res
}

// countMismatches counts the output words of got that differ from want.
func countMismatches(outputs []string, want, got map[string][]int32) int {
	n := 0
	for _, name := range outputs {
		w, g := want[name], got[name]
		for i := range w {
			if i >= len(g) || w[i] != g[i] {
				n++
			}
		}
	}
	return n
}
