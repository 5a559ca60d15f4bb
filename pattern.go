package mapa

import (
	"fmt"
	"io"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/trace"
)

// Pattern is an application communication topology: the small graph
// MAPA mines the hardware graph for. Build one from a named shape
// (NewPattern), from a source-analysis call trace (PatternFromCalls),
// or from runtime link-traffic profiling (PatternFromProfile) — the
// two extraction paths of Sec. 3.1 / Fig. 9 of the paper.
type Pattern struct {
	g *graph.Graph
}

// NewPattern builds a named communication shape over n accelerators.
func NewPattern(shape string, n int) (*Pattern, error) {
	s, err := appgraph.ParseShape(shape)
	if err != nil {
		return nil, err
	}
	g, err := appgraph.Build(s, n)
	if err != nil {
		return nil, err
	}
	return &Pattern{g: g}, nil
}

// CollectiveCall is one communication API invocation found by source
// analysis: a collective (ncclAllReduce, ncclBroadcast) over a device
// set, or a point-to-point transfer (cudaMemcpyPeer, MPI_Sendrecv)
// between two devices.
type CollectiveCall struct {
	// API is the call name; see the constants in this package.
	API string
	// Devices lists the participating logical devices.
	Devices []int
	// Bytes is the transfer size (selects ring vs tree for
	// collectives, as NCCL does).
	Bytes float64
}

// Supported CollectiveCall API names.
const (
	CallAllReduce  = string(trace.CallAllReduce)
	CallBroadcast  = string(trace.CallBroadcast)
	CallMemcpyPeer = string(trace.CallMemcpyPeer)
	CallSendRecv   = string(trace.CallSendRecv)
)

// PatternFromCalls builds the application pattern implied by a list of
// communication API calls, as source-code analysis would (Fig. 9a):
// the union of every call's communication edges, with devices
// renumbered 0..k-1.
func PatternFromCalls(calls []CollectiveCall) (*Pattern, error) {
	internal := make([]trace.Call, len(calls))
	for i, c := range calls {
		internal[i] = trace.Call{Kind: trace.CallKind(c.API), Devices: c.Devices, Bytes: c.Bytes}
	}
	g, err := trace.FromSource(internal)
	if err != nil {
		return nil, err
	}
	return &Pattern{g: g}, nil
}

// PatternFromProfile builds the application pattern from an
// nvidia-smi-style link-traffic dump (Fig. 9b): one "gpuA gpuB bytes"
// record per line; GPU pairs whose observed traffic exceeds
// thresholdBytes become communication edges.
func PatternFromProfile(r io.Reader, thresholdBytes float64) (*Pattern, error) {
	counters, err := trace.ParseProfile(r)
	if err != nil {
		return nil, err
	}
	g, err := trace.FromProfile(counters, thresholdBytes)
	if err != nil {
		return nil, err
	}
	return &Pattern{g: g}, nil
}

// NumGPUs returns the number of accelerators the pattern requires.
func (p *Pattern) NumGPUs() int { return p.g.NumVertices() }

// NumEdges returns the number of communication pairs in the pattern.
func (p *Pattern) NumEdges() int { return p.g.NumEdges() }

// DOT renders the pattern in Graphviz format.
func (p *Pattern) DOT() string { return p.g.DOT("pattern") }

// AllocatePattern leases GPUs for an explicit communication pattern,
// e.g. one extracted from a trace. It behaves like Allocate otherwise:
// the lease is journaled, published to every view stream and released
// with Release.
func (s *System) AllocatePattern(p *Pattern, sensitive bool) (*Lease, error) {
	if p == nil || p.g.NumVertices() == 0 {
		return nil, fmt.Errorf("mapa: empty pattern")
	}
	return s.allocate(JobRequest{NumGPUs: p.NumGPUs(), Sensitive: sensitive}, p.g)
}
