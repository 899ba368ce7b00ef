package dse

import (
	"fmt"

	"customfit/internal/machine"
)

// archSig is the backend-relevant signature of a concrete architecture:
// the complete set of parameters the compiler backend (partition,
// schedule, allocate, spill) can observe. Two architectures with equal
// signatures are compiled identically — they differ only in datapath
// cost and in the cycle-time derate, both applied outside the backend —
// so the evaluator's result store (Evaluator.Cache) holds one sweep for
// the whole signature class.
//
// Field inventory against the backend's reads:
//
//   - Clusters, ALUsPC, MULsPC: issue-slot model and partitioning
//     (ALUs = ALUsPC × Clusters exactly, by Arch.Validate's
//     divisibility rule, so the scheduler's scan budget is covered;
//     MULsPC's min-1 floor means total MULs may differ inside a class,
//     but the backend never reads the total);
//   - RegsPC: the pressure throttle's budget and the allocator's
//     capacity;
//   - L2Ports, L2Lat: global memory-port occupancy and the dependence
//     latencies (L2PathsPC and Buses derive from these and Clusters);
//   - MinMax: the opcode-repertoire fusion pass;
//   - OpsKey: the custom-op rewrite pass (machine.OpConfig.Key — the
//     enabled specs' content keys, so two masks enabling the same specs
//     share a class and op-free machines keep the historical empty key).
//
// The cycle-time derate reads RegPorts = 3·ALUsPC + 2·(1 + L2PathsPC),
// which is signature-determined, so even Time is constant per class up
// to the shared derate factor.
type archSig struct {
	Clusters int
	ALUsPC   int
	MULsPC   int
	RegsPC   int
	L2Ports  int
	L2Lat    int
	MinMax   bool
	OpsKey   string
}

// key renders the signature as the stable string that, combined with
// the kernel-class hash, content-addresses a result-store entry (see
// internal/evcache and Evaluator.Cache).
func (s archSig) key() string {
	k := fmt.Sprintf("c%d.a%d.m%d.r%d.p%d.l%d",
		s.Clusters, s.ALUsPC, s.MULsPC, s.RegsPC, s.L2Ports, s.L2Lat)
	if s.MinMax {
		k += ".mm"
	}
	if s.OpsKey != "" {
		k += ".ops{" + s.OpsKey + "}"
	}
	return k
}

// SigKey returns the architecture's backend-signature key: the stable
// string identifying its signature class. Two architectures with equal
// keys are compiled identically (see archSig), so anything that
// partitions the design space across evaluators — the distributed
// coordinator in internal/dist — should keep equal-keyed architectures
// in one partition: the evaluator's result store then deduplicates
// their backend work exactly as a single local run would.
func SigKey(a machine.Arch) string { return sigOf(a).key() }

// sigOf maps an architecture to its backend signature.
func sigOf(a machine.Arch) archSig {
	return archSig{
		Clusters: a.Clusters,
		ALUsPC:   a.ALUsPC(),
		MULsPC:   a.MULsPC(),
		RegsPC:   a.RegsPC(),
		L2Ports:  a.L2Ports,
		L2Lat:    a.L2Lat,
		MinMax:   a.MinMax,
		OpsKey:   a.Ops.Key(),
	}
}
