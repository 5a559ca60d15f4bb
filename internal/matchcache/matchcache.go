// Package matchcache is what the MAPA allocation hot path precomputes
// and keeps current so that a decision needs no subgraph-isomorphism
// search.
//
// A Store holds one idle-state universe per (topology, canonical
// pattern): the complete deduplicated enumeration of the shape on the
// full machine as its closed form (match.Universe: every k-subset of
// the GPUs composed with one list of permutations), plus the shape's
// score table (the state-independent Eq. 1 / Eq. 2 metrics and the
// static part of Eq. 3 per GPU set). Both are computed once —
// optionally warmed at construction, like an allocator precomputing
// pair scores at init — and shared by every engine bound to the
// topology.
//
// A Views tracks one availability-state stream over a Store in one
// match.BandwidthAccounting: the usable mask (free AND healthy) and the
// Eq. 3 sums, updated per delta in O(n) arithmetic. Machine graphs are
// complete, so the mask alone decides liveness — a shape's GPU set is
// live exactly when its GPUs are all usable — and no per-shape
// candidate index exists to maintain. SelectLive hands a policy the
// accounting and the score table, so the decision is table lookups plus
// O(k) arithmetic; when it declines — a mis-published stream is out of
// sync, the universe overflowed the store capacity, or a candidate cap
// truncates the live embeddings — the policy runs a fresh search on the
// availability graph instead.
//
// Patterns are keyed canonically (up to isomorphism, via
// graph.CanonicalForm), so structurally different builds of the same
// shape — a Ring(4) assembled 0-1-2-3-0 by one frontend and 0-2-1-3-0
// by another — share universes and tables; embeddings are
// re-expressed in each requester's own vertex IDs through the composed
// canonical labelings.
//
// A Store and its Views are bound to one topology; rebinding or
// reconfiguring hardware requires fresh instances. FleetStore and
// FleetViews are the fleet counterparts: one Store per node class, and
// one ordinary Views per node over its class's Store.
package matchcache
