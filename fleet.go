// Fleet machines: a System built from node templates instead of a
// flattened hardware graph.
//
// A flat System materializes the whole machine: its universe store
// enumerates candidate GPU sets over all N·perNode vertices, so cost
// grows with fleet size even though every node is the same machine. A
// fleet System keeps the machine symbolic — a topology.Fleet records
// the node classes and per-node vertex offsets — and builds the match
// pipeline per node *class*: one idle-state universe and one score
// table per (class, canonical shape), shared by every node of that
// class. Template memory and build time are O(distinct classes ×
// shapes), independent of node count: warming a 1,000-node fleet costs
// exactly what warming a 2-node one does.
//
// Everything else is the System: one availability mask, one lease
// table, one health set, one commit path, TTLs, batches and tenant
// handles. The fleet adds one delta stream (matchcache.FleetViews)
// beside the flat one — every tenant decides through it, since a
// tenant is only an owner label — and the policy decides on it first
// (policy.AttachFleet): a pattern that fits inside one node takes the hierarchical two-level path — an
// inter-node sweep over cheap per-node aggregates, then the ordinary
// table-served argmax against the shared class template, with
// node-local scores translated to exact fleet-global values (see
// matchcache's fleet doc comment for the Eq. 3 decomposition). That
// path places each job inside one node — the documented node-local
// placement rule. On fleets small enough to flatten
// (FleetFlattenLimit), the flattened machine is the System's topology
// and its flat pipeline serves node-spanning patterns and requests no
// single node can host; larger fleets have no flat topology and reject
// those with policy.ErrNoAllocation, since flattening them is the cost
// templates exist to avoid.
//
// Determinism: GPU IDs are node-major (node i owns IDs
// [Offset(i), Offset(i)+size)), equal-scored node winners resolve to
// the lowest node index, and that coincides with the flat matcher's
// lexicographic GPU-set tie-break. The churn-parity suites pin greedy
// decisions byte-identical to a flat System's; PreservedBW-primary
// policies follow the node-local rule (a flat matcher may prefer
// spreading an insensitive job across nodes) and are pinned against a
// node-local flat oracle instead.
package mapa

import (
	"fmt"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/topology"
)

// FleetFlattenLimit is the largest fleet (in GPUs) for which a fleet
// System also materializes the flattened machine as its topology, the
// fallback pipeline for node-spanning patterns. Beyond it the fleet
// stays purely symbolic: a complete graph on F GPUs has C(F,2) edges —
// 32 million at 8,000 GPUs — which is exactly the footprint templates
// avoid.
const FleetFlattenLimit = 128

// NewFleetSystem builds a System over nodes instances of the named
// node-template topology (e.g. "dgx-a100"), with the given policy.
// Options are the System options; WithWarmShapes warms the class
// templates (cost per class, not per node).
func NewFleetSystem(templateName string, nodes int, policyName string, opts ...SystemOption) (*System, error) {
	tmpl, err := topology.ByName(templateName)
	if err != nil {
		return nil, err
	}
	return NewFleetSystemFor(topology.NewFleet(tmpl, nodes), policyName, opts...)
}

// NewFleetSystemFor builds a System for an explicit fleet. The Eq. 2
// model is trained on the flattened machine when the fleet is small
// enough to flatten and falls back to the paper's published
// coefficients otherwise — the same rule effbw.TrainedFor applies to
// any machine above its training-size ceiling, so decisions agree with
// a flat System's either way.
//
// A fleet System supports the whole lease lifecycle — Allocate,
// AllocateBatch, Release, TTLs with Renew/ReapExpired, MarkUnhealthy/
// Restore and tenant handles — and rejects what would break node-class
// symmetry or has no snapshot form yet: DegradeLink, Repartition and
// WithJournal.
func NewFleetSystemFor(f *topology.Fleet, policyName string, opts ...SystemOption) (*System, error) {
	gpus := graph.NewBitset(f.NumGPUs())
	gpus.Fill(f.NumGPUs())
	var flat *topology.Topology
	model := effbw.PaperModel()
	if f.NumGPUs() <= FleetFlattenLimit {
		flat = f.Flatten()
		model = effbw.TrainedFor(flat)
	}
	s, err := newSystem(flat, gpus, model, policyName, opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.journalDir != "" {
		return nil, fmt.Errorf("mapa: fleet %s: WithJournal is unsupported on fleets (snapshots rebuild catalog topologies only)", f.Name)
	}
	s.fleet = f
	s.fstore = matchcache.NewFleetStore(f, matchcache.DefaultUniverseCapacity)
	s.warm(s.fstore.Warm, f.MaxNodeGPUs(), true)
	s.fviews = s.fstore.NewFleetViews()
	policy.AttachFleet(s.alloc, s.fviews)
	s.buildPipeline(true)
	return s, nil
}

// errFleetUnsupported is the error of a topology mutation fleets
// reject: node-class templates are shared by every node of a class, so
// one node cannot change shape alone.
func (s *System) errFleetUnsupported(op string) error {
	return fmt.Errorf("mapa: %s is unsupported on fleet %s: it breaks node-class symmetry; use a flat System", op, s.fleet.Name)
}
