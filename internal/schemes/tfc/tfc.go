// Package tfc models Token Flow Control (Kumar et al., MICRO 2008) at
// the level relevant to the paper's comparison: west-first routing
// whose output choice is steered by tokens — hints of free-buffer
// availability propagated from neighbors up to TokenRadius hops away.
// TFC's headline latency win came from bypassing a multi-cycle router
// pipeline; against the paper's optimized 1-cycle baseline router that
// bypass saves nothing (footnote 4: "TFC does not show low-load latency
// improvement. Our baseline router is an optimized 1-cycle router"), so
// what remains — and what this model captures — is the token-steered
// congestion avoidance that gives TFC a small throughput edge over
// plain west-first.
package tfc

import "seec/internal/noc"

// TokenRadius is how many hops ahead token information aggregates
// (TFC's default token propagation reaches a small neighborhood).
const TokenRadius = 2

// Policy is the TFC allocation policy. It is deadlock-free because the
// underlying routing is west-first (Table 4 lists TFC as "P,
// West-first").
type Policy struct{}

// tokens estimates the free-buffer tokens visible through output port
// `port` of router r for a packet heading to dst: free VCs one hop down
// plus free VCs at the productive continuation one further hop. Token
// state in hardware is a few wires from each neighbor; the simulator
// reads the equivalent mirrors directly.
func (Policy) tokens(r *noc.Router, port int, pkt *noc.Packet) int {
	n := r.Net
	lo, hi := n.Cfg.VCRange(pkt.Class)
	t := r.Out[port].FreeDownVCs(lo, hi)
	down := n.Cfg.Neighbor(r.ID, port)
	if down >= 0 && TokenRadius > 1 {
		dr := n.Routers[down]
		var dirs [2]int
		for _, p2 := range dr.RouteCandidates(noc.RoutingWestFirst, pkt, dirs[:0]) {
			if p2 != noc.Local && dr.Out[p2] != nil {
				t += dr.Out[p2].FreeDownVCs(lo, hi)
			}
		}
	}
	return t
}

// Select implements noc.VAPolicy: west-first candidates ordered by
// token count (most tokens first), first free VC in the class range.
func (p Policy) Select(r *noc.Router, in *noc.InputPort, vc *noc.VC) (noc.Assign, bool) {
	pkt := vc.Pkt
	var dirs [2]int
	cands := r.RouteCandidates(noc.RoutingWestFirst, pkt, dirs[:0])
	if len(cands) == 2 && cands[0] != noc.Local {
		if p.tokens(r, cands[1], pkt) > p.tokens(r, cands[0], pkt) {
			cands[0], cands[1] = cands[1], cands[0]
		}
	}
	for _, port := range cands {
		lo, hi := r.EligibleOutVCs(port, pkt.Class)
		for ov := lo; ov < hi; ov++ {
			if !r.Out[port].VCs[ov].Busy {
				return noc.Assign{OutPort: port, OutVC: ov}, true
			}
		}
	}
	return noc.Assign{}, false
}

// SelectInject implements noc.VAPolicy.
func (Policy) SelectInject(r *noc.Router, mirror []noc.OutVC, pkt *noc.Packet) (int, bool) {
	return noc.DefaultVA{Kind: noc.RoutingWestFirst}.SelectInject(r, mirror, pkt)
}
