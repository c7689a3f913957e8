// Package escape implements the Duato-style escape-VC baseline
// (§2.2, Table 4): per message class, one VC at each input port is the
// escape VC, restricted to deadlock-free west-first routing; the
// remaining VCs form a shared pool with fully-adaptive (or oblivious)
// minimal random routing. A head packet that cannot get a normal VC may
// always fall back to its class's escape VC, and once in the escape
// sub-network it stays there — the acyclic escape sub-network plus the
// always-available fallback give routing-deadlock freedom (Duato), and
// the per-class escape VCs give protocol-deadlock freedom (Fig. 7's
// "1 VC per VNet + 1 shared VC for adaptive routing" layout).
package escape

import "seec/internal/noc"

// Policy is the escape-VC allocation policy. VC indices [0, Classes)
// are the per-class escape VCs; [Classes, TotalVCs) is the shared
// adaptive pool. Configure the network with VNets=1 so the pool is
// shared; Policy enforces all restrictions.
type Policy struct {
	// Classes must match the network's Classes.
	Classes int
	// Adaptive selects the routing for normal VCs: RoutingAdaptiveMin
	// (the paper's default escape-VC baseline) or RoutingObliviousMin
	// (Fig. 12 variant (iii)).
	Adaptive noc.RoutingKind
}

// New returns the standard escape-VC policy with adaptive-random
// normal VCs.
func New(classes int) Policy {
	return Policy{Classes: classes, Adaptive: noc.RoutingAdaptiveMin}
}

// inEscape reports whether a VC index is an escape VC.
func (p Policy) inEscape(vc int) bool { return vc < p.Classes }

// Select implements noc.VAPolicy.
func (p Policy) Select(r *noc.Router, in *noc.InputPort, vc *noc.VC) (noc.Assign, bool) {
	pkt := vc.Pkt
	var dirs [2]int
	if !p.inEscape(vc.ID) {
		// Normal pool: adaptive candidates over normal VCs.
		for _, port := range r.RouteCandidates(p.Adaptive, pkt, dirs[:0]) {
			if a, ok := p.pickNormal(r, port, pkt); ok {
				return a, true
			}
		}
	}
	// Escape fallback (and the only option for packets already in the
	// escape sub-network): west-first route, class's escape VC.
	for _, port := range r.RouteCandidates(noc.RoutingWestFirst, pkt, dirs[:0]) {
		if port == noc.Local {
			// Ejection is unrestricted: any free ejection VC of the class.
			lo, hi := r.EligibleOutVCs(port, pkt.Class)
			for ov := lo; ov < hi; ov++ {
				if !r.Out[port].VCs[ov].Busy {
					return noc.Assign{OutPort: port, OutVC: ov}, true
				}
			}
			return noc.Assign{}, false
		}
		if !r.Out[port].VCs[pkt.Class].Busy {
			return noc.Assign{OutPort: port, OutVC: pkt.Class}, true
		}
		// West-first is deterministic when heading west; otherwise try
		// the next allowed direction's escape VC too.
	}
	return noc.Assign{}, false
}

// pickNormal finds a free normal-pool VC at the output port.
func (p Policy) pickNormal(r *noc.Router, port int, pkt *noc.Packet) (noc.Assign, bool) {
	if port == noc.Local {
		lo, hi := r.EligibleOutVCs(port, pkt.Class)
		for ov := lo; ov < hi; ov++ {
			if !r.Out[port].VCs[ov].Busy {
				return noc.Assign{OutPort: port, OutVC: ov}, true
			}
		}
		return noc.Assign{}, false
	}
	for ov := p.Classes; ov < len(r.Out[port].VCs); ov++ {
		if !r.Out[port].VCs[ov].Busy {
			return noc.Assign{OutPort: port, OutVC: ov}, true
		}
	}
	return noc.Assign{}, false
}

// SelectInject implements noc.VAPolicy: prefer the normal pool,
// fall back to the class's escape VC.
func (p Policy) SelectInject(r *noc.Router, mirror []noc.OutVC, pkt *noc.Packet) (int, bool) {
	for v := p.Classes; v < len(mirror); v++ {
		if !mirror[v].Busy {
			return v, true
		}
	}
	if !mirror[pkt.Class].Busy {
		return pkt.Class, true
	}
	return 0, false
}
