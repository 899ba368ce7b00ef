package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

// sampleStride keeps every sampleStride-th design point of
// machine.DesignSpace (with all its cluster arrangements) in the
// explore sample. Together with the always-included machines below it
// gives 52 of the 762 machines, about the size of a 1-in-16 sample.
const sampleStride = 24

// tablePicks are the architectures the paper's Tables 8-10 select (the
// list bench_test.go explores).
var tablePicks = [][6]int{
	{4, 2, 256, 1, 4, 4}, {8, 2, 128, 1, 4, 4}, {8, 2, 128, 1, 8, 4},
	{8, 4, 256, 1, 4, 4}, {8, 2, 256, 1, 4, 4}, {16, 4, 128, 1, 4, 8},
	{16, 4, 256, 2, 4, 8}, {16, 4, 512, 1, 4, 8}, {8, 4, 512, 1, 4, 4},
	{16, 4, 512, 1, 8, 8}, {16, 8, 256, 1, 4, 8}, {8, 2, 256, 1, 8, 4},
}

// defectMachines are the two machines on which kernel A fails to
// compile at unroll 1 (register pressure does not fit). They stay in
// both workloads so the defect shows in fail_share until it is fixed.
var defectMachines = []machine.Arch{
	{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 2},
	{ALUs: 16, MULs: 8, Regs: 128, L2Ports: 1, L2Lat: 8, Clusters: 2},
}

func archOf(t [6]int) machine.Arch {
	return machine.Arch{ALUs: t[0], MULs: t[1], Regs: t[2], L2Ports: t[3], L2Lat: t[4], Clusters: t[5]}
}

// exploreSample returns the machines of the explore workload in the
// order the session lists them. The composition is fixed: every
// sampleStride-th design point and the design points of the defect
// machines, each with every cluster arrangement (so the signature memo
// and the delta compiler see the sharing a full-space run sees), plus
// the baseline and the Table 8-10 picks. The seed shuffles the order,
// which changes how work is shared between the workers but not the
// results. Drawing the composition from the seed moves the cold
// throughput and geomean_speedup by more than a regression bound
// between seeds (see README.md).
func exploreSample(seed int64) []machine.Arch {
	seen := map[machine.Arch]bool{}
	var out []machine.Arch
	add := func(a machine.Arch) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	addPoint := func(p machine.Arch) {
		for _, c := range machine.ClusterArrangements(p) {
			add(p.WithClusters(c))
		}
	}
	add(machine.Baseline)
	for _, t := range tablePicks {
		add(archOf(t))
	}
	for _, d := range defectMachines {
		addPoint(d.WithClusters(1))
	}
	points := machine.DesignSpace()
	for i := 0; i < len(points); i += sampleStride {
		addPoint(points[i])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// selectStep is one warm re-exploration's question: the cost cap and
// Range the architect selects with afterwards (the paper's Tables 8-10
// use caps 5, 10 and 15).
type selectStep struct {
	CostCap float64
	Range   float64
}

var (
	stepCaps   = []float64{5, 10, 15}
	stepRanges = []float64{0, 0.05, 0.10, 0.25, math.Inf(1)}
)

// warmSession returns the seeded sequence of selection steps; warm
// pass i uses step i modulo its length.
func warmSession(seed int64) []selectStep {
	r := rand.New(rand.NewSource(seed ^ 0x5e55_10f5))
	steps := make([]selectStep, 32)
	for i := range steps {
		steps[i] = selectStep{stepCaps[r.Intn(len(stepCaps))], stepRanges[r.Intn(len(stepRanges))]}
	}
	return steps
}

// jobSpec is one cfp-serve job of the serve-jobs stream.
type jobSpec struct {
	Kind   string // "simulate" or "compile"
	Bench  string
	Arch   machine.Arch
	Unroll int
	Seed   int64 // simulate: workload seed of the generated case
}

// deckStrata is how many strata FullSpace is cut into for the job deck.
const deckStrata = 11

// jobDeck is the serve-jobs workload's job multiset: every (benchmark,
// unroll) pair on one machine of every stratum of machine.FullSpace,
// plus known-defect jobs. FullSpace is sorted by registers and then
// ALUs per cluster (what decides how hard a kernel spills) and cut
// into deckStrata strata; the machine of each (pair, stratum) cell is
// a fixed spread over the stratum. Every fifth cell is a compile job,
// the rest simulate.
//
// Job latency is heavy-tailed: a few spill-heavy draws (C or A at
// unroll 2 on register-starved machines) take seconds while the median
// job takes tens of milliseconds. With independent draws the heavy
// jobs a run happens to get move throughput and p95 by a quarter or
// more between seeds, so the multiset is fixed and the seed orders it
// (see jobStream) and picks each simulate job's case data.
func jobDeck() []jobSpec {
	var pairs []jobSpec
	for _, u := range []int{1, 2} {
		for _, b := range bench.Names() {
			pairs = append(pairs, jobSpec{Bench: b, Unroll: u})
		}
	}
	space := machine.FullSpace()
	sort.SliceStable(space, func(i, j int) bool {
		a, b := space[i], space[j]
		if a.RegsPC() != b.RegsPC() {
			return a.RegsPC() < b.RegsPC()
		}
		return a.ALUsPC() < b.ALUsPC()
	})
	var deck []jobSpec
	for k := 0; k < deckStrata; k++ {
		stratum := space[k*len(space)/deckStrata : (k+1)*len(space)/deckStrata]
		for p, j := range pairs {
			j.Kind = "simulate"
			if len(deck)%5 == 4 {
				j.Kind = "compile"
			}
			j.Arch = stratum[(p*len(stratum))/len(pairs)]
			deck = append(deck, j)
		}
	}
	// Known-defect jobs, about one in fifty: kernel A compiled at unroll
	// 1 on the machines where it does not fit.
	for i := 0; i < len(deck)/50; i++ {
		deck = append(deck, jobSpec{Kind: "compile", Bench: "A", Arch: defectMachines[i%2], Unroll: 1})
	}
	return deck
}

// jobStream is the seeded, unbounded serve-jobs stream: the deck over
// and over, each pass in its own seeded order. Job i depends only on
// the seed and i, so any prefix is reproducible.
type jobStream struct {
	seed int64
	deck []jobSpec
	pass map[int][]int // pass -> permutation of the deck
}

func newJobStream(seed int64) *jobStream {
	return &jobStream{seed: seed, deck: jobDeck(), pass: map[int][]int{}}
}

func (s *jobStream) job(i int) jobSpec {
	n := len(s.deck)
	pass, pos := i/n, i%n
	perm, ok := s.pass[pass]
	if !ok {
		perm = rand.New(rand.NewSource(s.seed*1_000_003 + int64(pass))).Perm(n)
		s.pass[pass] = perm
	}
	j := s.deck[perm[pos]]
	if j.Kind == "simulate" {
		r := splitmix(uint64(s.seed)*0x9e3779b97f4a7c15 ^ uint64(i))
		j.Seed = int64(r.next()%1_000_000) + 1
	}
	return j
}

// wireArch renders an architecture in cfp-serve's "a m r p2 l2 c" form.
func wireArch(a machine.Arch) string {
	return fmt.Sprintf("%d %d %d %d %d %d", a.ALUs, a.MULs, a.Regs, a.L2Ports, a.L2Lat, a.Clusters)
}

// splitmix is the SplitMix64 generator: a tiny, well-mixed stream
// derived from one 64-bit state.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
