package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"customfit/internal/obs"
)

// tracer is a traced run's collector and root span. A nil *tracer is
// the untraced run: every method is a no-op and spans are nil.
type tracer struct {
	col  *obs.Collector
	root *obs.Span
}

func startTracer(name string) *tracer {
	col := obs.NewCollector()
	obs.Install(col)
	return &tracer{col: col, root: obs.StartSpan(name)}
}

// child begins a span under the run's root.
func (t *tracer) child(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name)
}

// fork begins a span under the run's root on its own track.
func (t *tracer) fork(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.root.Fork(name)
}

// detach stops recording (the program's spans and counters go
// nowhere) until attach.
func (t *tracer) detach() {
	if t != nil {
		obs.Install(nil)
	}
}

func (t *tracer) attach() {
	if t != nil {
		obs.Install(t.col)
	}
}

func (t *tracer) stop() { obs.Install(nil) }

// mark returns how many spans have been recorded so far.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.col.Events())
}

// counterNames are the program's obs counters the ledger reads.
var counterNames = []string{
	"dse.compile_nofit", "dse.compile_memo_hits",
	"sched.delta_fallbacks", "sched.delta_block_hits", "sched.delta_block_misses",
	"evcache.hits", "evcache.misses", "sim.cycles",
}

type counterSet map[string]int64

func (t *tracer) counters() counterSet {
	c := counterSet{}
	if t != nil {
		for _, n := range counterNames {
			c[n] = t.col.Counter(n).Value()
		}
	}
	return c
}

func (c counterSet) minus(o counterSet) counterSet {
	d := counterSet{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// write ends the root span and writes the Chrome trace of every
// recorded span, returning the files written.
func (t *tracer) write(dir, workload string, seed int64, extra ...*obs.Collector) []string {
	t.root.End()
	var files []string
	for i, c := range append([]*obs.Collector{t.col}, extra...) {
		name := fmt.Sprintf("trace-%s-seed%d.json", workload, seed)
		if i > 0 {
			name = fmt.Sprintf("trace-%s-seed%d-replay.json", workload, seed)
		}
		path := filepath.Join(dir, name)
		if err := c.WriteTraceFile(path); err != nil {
			fmt.Printf("trace: %v\n", err)
			continue
		}
		files = append(files, path)
	}
	return files
}

// spanLayer maps span names (the program's own and the benchmark's) to
// the package they time. Unlisted spans belong to the harness.
var spanLayer = map[string]string{
	"frontend": "cc", "parse": "cc", "check": "cc", "lower": "cc", "bench.Compile": "cc",
	"opt": "opt", "opt.clean": "opt", "opt.scalarize": "opt", "opt.ifconvert": "opt",
	"opt.licm": "opt", "opt.reassoc": "opt", "opt.unroll": "opt", "opt.Prepare": "opt",
	"sim.reference": "ir", "ir.Interp": "ir",
	"ddg.BuildSkeleton": "ddg",
	"sched":             "sched", "sched.partition": "sched", "sched.schedule": "sched", "sched.spill": "sched",
	"sched.delta": "sched", "sched.validate": "sched", "sched.CompilePrepared": "sched",
	"regalloc": "regalloc",
	"sim":      "sim", "sim.Run": "sim",
	"bench.Golden": "bench",
	"dse.explore":  "dse", "evaluate": "dse",
	"evcache.Open": "evcache", "evcache.Get": "evcache", "evcache.Put": "evcache", "evcache.Flush": "evcache",
	"compile":   "core",
	"serve.job": "serve", "serve.submit": "serve", "serve.poll": "serve",
}

func layerOf(name string) string {
	if l, ok := spanLayer[name]; ok {
		return l
	}
	return "harness"
}

// ledger aggregates one collector's spans.
type ledger struct {
	evs      []obs.Event
	layer    map[obs.SpanID]string
	childDur map[obs.SpanID]time.Duration
}

func newLedger(evs []obs.Event) *ledger {
	l := &ledger{evs: evs, layer: map[obs.SpanID]string{}, childDur: map[obs.SpanID]time.Duration{}}
	for _, e := range evs {
		l.layer[e.ID] = layerOf(e.Name)
		l.childDur[e.Parent] += e.Dur
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// count is the number of spans with the name.
func (l *ledger) count(name string) int {
	n := 0
	for _, e := range l.evs {
		if e.Name == name {
			n++
		}
	}
	return n
}

// sumMS is the total duration of the named spans, in milliseconds.
func (l *ledger) sumMS(names ...string) float64 {
	var d time.Duration
	for _, e := range l.evs {
		for _, n := range names {
			if e.Name == n {
				d += e.Dur
			}
		}
	}
	return ms(d)
}

// layerRow is one line of the per-layer table. Busy time counts each
// outermost span of the layer (one not nested in another span of the
// same layer); self time subtracts the time covered by child spans.
// Both are summed over concurrent workers.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
}

func (l *ledger) rows() map[string]*layerRow {
	rows := map[string]*layerRow{}
	for _, e := range l.evs {
		name := layerOf(e.Name)
		r := rows[name]
		if r == nil {
			r = &layerRow{Layer: name}
			rows[name] = r
		}
		r.Spans++
		if l.layer[e.Parent] != name {
			r.BusyMS += ms(e.Dur)
		}
		if self := e.Dur - l.childDur[e.ID]; self > 0 {
			r.SelfMS += ms(self)
		}
	}
	return rows
}

// table returns the per-layer rows, busiest first, with prefix before
// each layer name.
func (l *ledger) table(prefix string) []layerRow {
	var out []layerRow
	for _, r := range l.rows() {
		r.Layer = prefix + r.Layer
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BusyMS > out[j].BusyMS })
	return out
}

// commonLayers fills the metrics both workloads read from the
// program's own spans: frontend, opt, the backend and the simulator.
func commonLayers(m map[string]float64, l *ledger, c counterSet) {
	rows := l.rows()
	busy := func(layer string) float64 {
		if r := rows[layer]; r != nil {
			return r.BusyMS
		}
		return 0
	}
	m["cc.calls"] = float64(l.count("parse"))
	m["cc.busy_ms"] = busy("cc")
	m["opt.calls"] = float64(l.count("opt"))
	m["opt.busy_ms"] = busy("opt")
	m["sched.partition_ms"] = l.sumMS("sched.partition")
	m["sched.schedule_ms"] = l.sumMS("sched.schedule")
	m["sched.spill_ms"] = l.sumMS("sched.spill")
	m["sched.cold_compile_ms"] = l.sumMS("sched")
	m["sched.cold_compiles"] = float64(l.count("sched"))
	m["sched.spill_rounds"] = float64(l.count("sched.spill"))
	m["sched.delta_compile_ms"] = l.sumMS("sched.delta")
	m["sched.delta_fallback_share"] = ratio(float64(c["sched.delta_fallbacks"]), float64(l.count("sched.delta")))
	m["sched.delta_block_hit_ratio"] = ratio(float64(c["sched.delta_block_hits"]), float64(c["sched.delta_block_hits"]+c["sched.delta_block_misses"]))
	m["regalloc.calls"] = float64(l.count("regalloc"))
	m["regalloc.busy_ms"] = busy("regalloc")
	m["sim.runs"] = float64(l.count("sim"))
	m["sim.busy_ms"] = l.sumMS("sim")
	m["sim.cycles_per_s"] = ratio(float64(c["sim.cycles"]), m["sim.busy_ms"]/1000)
}

// printLayers prints a traced run's per-layer table, every per-layer
// metric and the notes.
func printLayers(out *outcome) {
	fmt.Println("per-layer table (busy and self time summed over workers):")
	fmt.Printf("  %-18s %8s %12s %12s\n", "layer", "spans", "busy ms", "self ms")
	for _, r := range out.layers {
		fmt.Printf("  %-18s %8d %12.2f %12.2f\n", r.Layer, r.Spans, r.BusyMS, r.SelfMS)
	}
	fmt.Println("per-layer metrics:")
	for _, m := range perLayer {
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, out.perLayer[m.Name], m.Unit)
	}
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
}
