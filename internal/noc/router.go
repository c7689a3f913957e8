package noc

import (
	"math/bits"

	"seec/internal/trace"
)

// Assign is a VC-allocation decision: which output port and which
// downstream VC a head packet gets.
type Assign struct {
	OutPort int
	OutVC   int
}

// VAPolicy decides VC allocation. The default policy implements plain
// credit flow control over the configured routing algorithm; the escape
// VC scheme substitutes its own policy (adaptive in normal VCs,
// west-first in the per-class escape VC).
type VAPolicy interface {
	// Select chooses an output port and downstream VC for the packet
	// heading vc at input port in of router r, or reports that nothing
	// is available this cycle.
	Select(r *Router, in *InputPort, vc *VC) (Assign, bool)
	// SelectInject picks a VC at router r's local input port for a new
	// packet at the NIC, given the NIC's mirror of those VCs.
	SelectInject(r *Router, mirror []OutVC, pkt *Packet) (int, bool)
}

// DefaultVA is the standard allocation policy: try the routing
// algorithm's candidate ports in order; within a port take the first
// Idle downstream VC in the packet's class range. A network whose VA
// is a DefaultVA value and that has no fault injector does not call
// Select: it runs the decision-identical fused path (Router.vaFused).
type DefaultVA struct {
	Kind RoutingKind
}

// Select implements VAPolicy.
func (d DefaultVA) Select(r *Router, in *InputPort, vc *VC) (Assign, bool) {
	var dirs [2]int
	for _, port := range r.RouteCandidates(d.Kind, vc.Pkt, dirs[:0]) {
		out := r.Out[port]
		lo, hi := r.EligibleOutVCs(port, vc.Pkt.Class)
		for ov := lo; ov < hi; ov++ {
			if !out.VCs[ov].Busy {
				return Assign{OutPort: port, OutVC: ov}, true
			}
		}
	}
	return Assign{}, false
}

// SelectInject implements VAPolicy.
func (d DefaultVA) SelectInject(r *Router, mirror []OutVC, pkt *Packet) (int, bool) {
	lo, hi := r.Net.Cfg.VCRange(pkt.Class)
	for v := lo; v < hi; v++ {
		if !mirror[v].Busy {
			return v, true
		}
	}
	return 0, false
}

// Router is a five-port, one-cycle-pipeline mesh router (combined
// RC+VA+SA+ST, Table 4: "Router Latency 1-cycle").
type Router struct {
	ID   int
	X, Y int
	Net  *Network

	In  [NumPorts]*InputPort  // nil where the mesh has no neighbor
	Out [NumPorts]*OutputPort // nil where the mesh has no neighbor

	nvcs int // cached Cfg.TotalVCs()

	// occupied counts input VCs buffering flits outside Free-Flow mode.
	// While it is zero neither va nor sa can change any state, so
	// Network.Step skips the router entirely. Maintained by VC.sync.
	occupied int

	// vaSet flags (port, vc) pairs that may need VC allocation, bit
	// index Dir*nvcs + vcID. Maintained by VC.sync.
	vaSet bitset

	// vcAt maps a vaSet bit index (Dir*nvcs + vcID) straight to the VC
	// view, nil where the mesh edge has no port. A slice of the
	// network's vcPtrs slab (layout.go); the va scan uses it instead of
	// dividing the bit index back into (port, vc).
	vcAt []*VC

	_ [8]byte // holds saWords at its tuned offset (layout.go)

	// saWords views the five input ports' saSet words, indexed by
	// direction, when every saSet is one word (TotalVCs <= 64; nil
	// otherwise). They are adjacent in the bitset slab, so SA stage 1
	// reads one line to find the ports with candidates. A missing
	// port's word is carved too and stays zero.
	saWords *[NumPorts]uint64
}

// EligibleOutVCs returns the downstream VC index range a packet of the
// given class may allocate at output port `port`: the per-class
// ejection VCs for the local port, the class's vnet range otherwise.
func (r *Router) EligibleOutVCs(port, class int) (lo, hi int) {
	if port == Local {
		e := r.Net.Cfg.EjectVCsPerClass
		return class * e, (class + 1) * e
	}
	return r.Net.Cfg.VCRange(class)
}

// step runs the router for one cycle: VC allocation, then switch
// allocation and traversal.
func (r *Router) step() {
	r.va()
	r.sa()
}

// va performs VC allocation for every head packet that does not yet
// hold a downstream VC. Candidate VCs come from the router's vaSet and
// are visited in the same rotating (port, vc) order the full scan used
// — the rotation base is the network-wide vaRound (one tick per
// non-frozen cycle, exactly what the old per-router pointer counted) so
// fairness and therefore every allocation decision is bit-identical.
// Allocations take effect immediately (mirror marked Busy), so two
// heads can never win the same downstream VC in one cycle.
func (r *Router) va() {
	base := r.Net.vaRoundMod
	vcAt := r.vcAt
	if len(r.vaSet) == 1 {
		// Single-word set (vaTotal <= 64, every default-ish config):
		// iterate a snapshot with bit tricks instead of re-scanning via
		// next(). Bits can only be cleared mid-scan (a grant syncs its own
		// VC), and vaTry rechecks eligibility, so visiting the snapshot is
		// decision-identical.
		w := r.vaSet[0]
		hi := w & (^uint64(0) << uint(base)) // bits at or after the rotation base
		for m := hi; m != 0; m &= m - 1 {
			r.vaTry(vcAt[bits.TrailingZeros64(m)])
		}
		for m := w &^ hi; m != 0; m &= m - 1 {
			r.vaTry(vcAt[bits.TrailingZeros64(m)])
		}
		return
	}
	// The rotation is two ascending segments: [base, total) then [0, base).
	for idx := r.vaSet.next(base); idx >= 0; idx = r.vaSet.next(idx + 1) {
		r.vaTry(vcAt[idx])
	}
	for idx := r.vaSet.next(0); idx >= 0 && idx < base; idx = r.vaSet.next(idx + 1) {
		r.vaTry(vcAt[idx])
	}
}

// vaTry re-checks full VA eligibility for one flagged VC (the bit is
// conservative) and runs the allocation policy on it. A current VA
// failure memo answers first: it exists only on the fused path and
// only while the VC holds the unallocated head it was recorded for
// (VC.sync drops it on any change), so eligibility need not be
// re-checked.
func (r *Router) vaTry(vc *VC) {
	if vc == nil {
		return
	}
	if vc.memoN != 0 && r.memoCurrent(vc) {
		if vc.memoDraw {
			r.Net.Rng.Bool(0.5)
		}
		r.vaStall()
		return
	}
	if vc.State != VCActive || vc.FFMode || vc.OutVC >= 0 || vc.Empty() || !vc.Front().IsHead() {
		return
	}
	in := vc.in
	var a Assign
	var ok bool
	if r.Net.vaFast {
		a, ok = r.vaFused(vc)
	} else {
		a, ok = r.Net.VA.Select(r, in, vc)
	}
	if ok {
		vc.grant(a.OutPort, a.OutVC)
		r.Out[a.OutPort].VCs[a.OutVC].Busy = true
		if tr := r.Net.Tracer; tr != nil {
			tr.Record(trace.Event{Cycle: r.Net.Cycle, Kind: trace.EvRoute,
				Node: int32(r.ID), Port: int16(in.Dir), VC: int16(vc.ID),
				Pkt: vc.Pkt.ID, Arg: int64(a.OutPort)})
			tr.Record(trace.Event{Cycle: r.Net.Cycle, Kind: trace.EvVA,
				Node: int32(r.ID), Port: int16(a.OutPort), VC: int16(a.OutVC),
				Pkt: vc.Pkt.ID, Arg: int64(in.Dir)})
		}
	} else {
		r.vaStall()
	}
}

// vaStall records a failed VC allocation when metrics are installed.
func (r *Router) vaStall() {
	if m := r.Net.Metrics; m != nil {
		m.Stall(r.ID, trace.StallVA)
	}
}

// memoCurrent reports whether none of the memoized candidate ports has
// freed a downstream VC since the VC's last fused allocation failed.
func (r *Router) memoCurrent(vc *VC) bool {
	return r.Out[vc.memoPort[0]].freeGen == vc.memoGen[0] &&
		(vc.memoN == 1 || r.Out[vc.memoPort[1]].freeGen == vc.memoGen[1])
}

// vaFused is DefaultVA.Select devirtualized for every routing kind
// (the fused path: DefaultVA installed, no fault injector). It derives
// the candidate ports inline in RouteCandidates' order, draws the same
// oblivious/adaptive tie-break from the network RNG, and scans the
// downstream VCs the same way, so decisions and RNG draws are
// identical to the generic path by construction.
//
// A failure is memoized on the VC: the candidate ports, their free
// generations and whether the tie-break was drawn. Failing means every
// candidate port's eligible VCs were busy, and a busy VC can only
// become free through OutputPort.FreeVC, which bumps the generation.
// So while the snapshot matches (vaTry checks memoCurrent first), the
// attempt provably fails again and with a tied (all-zero) adaptive
// ordering; replaying it reduces to redrawing the tie-break, which
// keeps the RNG stream exact.
func (r *Router) vaFused(vc *VC) (Assign, bool) {
	net := r.Net
	pkt := vc.Pkt
	dx, dy := int(net.xOf[pkt.Dst]), int(net.yOf[pkt.Dst])
	var ports [2]int
	np := 1
	drew := false
	var lo, hi int
	if dx == r.X && dy == r.Y {
		ports[0] = Local
		lo, hi = r.EligibleOutVCs(Local, pkt.Class)
	} else {
		lo, hi = net.Cfg.VCRange(pkt.Class)
		xd, yd := -1, -1 // productive directions per dimension
		if dx > r.X {
			xd = East
		} else if dx < r.X {
			xd = West
		}
		if dy > r.Y {
			yd = North
		} else if dy < r.Y {
			yd = South
		}
		switch kind := net.vaKind; {
		case kind == RoutingXY:
			ports[0] = xd
			if xd < 0 {
				ports[0] = yd
			}
		case kind == RoutingYX:
			ports[0] = yd
			if yd < 0 {
				ports[0] = xd
			}
		case kind == RoutingWestFirst && xd == West:
			ports[0] = West
		case xd < 0:
			ports[0] = yd
		case yd < 0:
			ports[0] = xd
		default:
			// Two minimal directions, X first: the oblivious coin or
			// the adaptive free-VC ordering (west-first past its west
			// hops is adaptive).
			ports[0], ports[1], np = xd, yd, 2
			swap := false
			if kind == RoutingObliviousMin {
				drew = true
				swap = net.Rng.Bool(0.5)
			} else {
				f0 := r.Out[xd].FreeDownVCs(lo, hi)
				f1 := r.Out[yd].FreeDownVCs(lo, hi)
				swap = f1 > f0
				if f0 == f1 {
					drew = true
					swap = net.Rng.Bool(0.5)
				}
			}
			if swap {
				ports[0], ports[1] = yd, xd
			}
		}
	}
	for i := 0; i < np; i++ {
		out := r.Out[ports[i]]
		for ov := lo; ov < hi; ov++ {
			if !out.VCs[ov].Busy {
				return Assign{OutPort: ports[i], OutVC: ov}, true
			}
		}
	}
	vc.memoN = uint8(np)
	vc.memoDraw = drew
	for i := 0; i < np; i++ {
		vc.memoPort[i] = uint8(ports[i])
		vc.memoGen[i] = r.Out[ports[i]].freeGen
	}
	return Assign{}, false
}

// sa is a two-stage separable switch allocator: stage 1 picks one
// requesting VC per input port (round-robin over the port's saSet),
// stage 2 picks one input port per output port (round-robin), then
// winners traverse the switch.
//
// Neither stage tests whether an output link is already busy: it never
// is here. Only this router's stage 2 sends on its output links, once
// per output per cycle; every link delivered (and went idle) before any
// router stepped; and Free-Flow claims a link through FFReserved, not
// through the link. DataLink.Send panics on a second send in one cycle,
// so a violation cannot pass silently.
func (r *Router) sa() {
	var reqs [NumPorts]*VC
	var reqMask [NumPorts]uint // per output port: bit per requesting input
	want := uint(0)            // bit per requested output port
	words := r.saWords
	for p := 0; p < NumPorts; p++ {
		var vc *VC
		if words != nil {
			// A port with an empty saSet has no candidate: skip it
			// without loading the port (missing ports' words are 0).
			if words[p] == 0 {
				continue
			}
			vc = r.saPickWord(r.In[p], words[p])
		} else if in := r.In[p]; in != nil {
			vc = r.saPick(in)
		}
		if vc != nil {
			reqs[p] = vc
			reqMask[vc.OutPort] |= 1 << p
			want |= 1 << vc.OutPort
		}
	}
	// Stage 2, outputs in ascending order. Each input requests exactly
	// one output, so the outputs' arbitrations are independent: the
	// round-robin winner is the first requesting input at or after the
	// output's pointer, i.e. the lowest set bit of the request mask
	// rotated right by the pointer.
	for ; want != 0; want &= want - 1 {
		o := bits.TrailingZeros(want)
		out := r.Out[o] // non-nil: some VC holds a grant to it
		if out.FFReserved {
			continue
		}
		ptr := out.saPtr // always in [0, NumPorts)
		m := reqMask[o]
		rot := (m>>ptr | m<<(NumPorts-ptr)) & (1<<NumPorts - 1)
		p := ptr + bits.TrailingZeros(rot)
		if p >= NumPorts {
			p -= NumPorts
		}
		vc := reqs[p]
		in := r.In[p]
		r.sendFlit(in, vc)
		sp := vc.ID + 1
		if sp == r.nvcs {
			sp = 0
		}
		in.saPtr = sp
		p++
		if p == NumPorts {
			p = 0
		}
		out.saPtr = p
	}
}

// saPick runs SA stage 1 for one input port whose saSet spans several
// words: the first VC at or after the round-robin pointer that passes
// the full sendability check wins. Candidates come from the port's
// saSet; each flagged VC is re-checked exactly as the full scan did, so
// the winner is bit-identical.
func (r *Router) saPick(in *InputPort) *VC {
	if in.saSet.empty() {
		return nil
	}
	base := in.saPtr // always in [0, len(VCs))
	for idx := in.saSet.next(base); idx >= 0; idx = in.saSet.next(idx + 1) {
		if vc := r.saCheck(&in.vcs[idx]); vc != nil {
			return vc
		}
	}
	for idx := in.saSet.next(0); idx >= 0 && idx < base; idx = in.saSet.next(idx + 1) {
		if vc := r.saCheck(&in.vcs[idx]); vc != nil {
			return vc
		}
	}
	return nil
}

// saPickWord is saPick for a single-word saSet w (non-zero), iterating
// a snapshot with bit tricks, same argument as va(). Stage 1 mutates
// nothing, so the snapshot cannot even go stale.
func (r *Router) saPickWord(in *InputPort, w uint64) *VC {
	hi := w & (^uint64(0) << uint(in.saPtr))
	for m := hi; m != 0; m &= m - 1 {
		if vc := r.saCheck(&in.vcs[bits.TrailingZeros64(m)]); vc != nil {
			return vc
		}
	}
	for m := w &^ hi; m != 0; m &= m - 1 {
		if vc := r.saCheck(&in.vcs[bits.TrailingZeros64(m)]); vc != nil {
			return vc
		}
	}
	return nil
}

// saCheck re-checks full SA stage-1 eligibility for one flagged VC (the
// bit is conservative) and returns it if sendable this cycle. The output
// link is never busy here (see sa).
func (r *Router) saCheck(vc *VC) *VC {
	if vc.State != VCActive || vc.FFMode || vc.Empty() || vc.OutVC < 0 {
		return nil
	}
	out := r.Out[vc.OutPort]
	if out.FFReserved || out.VCs[vc.OutVC].Credits <= 0 {
		if net := r.Net; net.Metrics != nil || net.Tracer != nil {
			r.noteSAStall(vc, out)
		}
		return nil
	}
	return vc
}

// noteSAStall classifies and records a failed SA check: out of
// downstream credits vs. output link taken by a Free-Flow lookahead.
// Only called when instrumentation is installed.
func (r *Router) noteSAStall(vc *VC, out *OutputPort) {
	cause := trace.StallLink
	kind := trace.EvLinkStall
	if out.VCs[vc.OutVC].Credits <= 0 {
		cause = trace.StallCredit
		kind = trace.EvCreditStall
	}
	if m := r.Net.Metrics; m != nil {
		m.Stall(r.ID, cause)
	}
	if tr := r.Net.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: r.Net.Cycle, Kind: kind,
			Node: int32(r.ID), Port: int16(vc.OutPort), VC: int16(vc.OutVC),
			Pkt: vc.Pkt.ID, Arg: int64(out.VCs[vc.OutVC].Credits)})
	}
}

// sendFlit moves the front flit of vc across the switch onto its output
// link, returns a credit upstream, and releases the VC on tail
// departure.
func (r *Router) sendFlit(in *InputPort, vc *VC) {
	out := r.Out[vc.OutPort]
	f := vc.popSend()
	out.VCs[vc.OutVC].Credits--
	out.Link.Send(f, vc.OutVC)
	vc.LastMove = r.Net.Cycle
	r.Net.Energy.BufferReads++
	if out.Dir != Local {
		r.Net.Energy.AddDataHop()
		if f.IsHead() {
			f.Pkt.Hops++
		}
		if m := r.Net.Metrics; m != nil {
			m.LinkFlit(r.ID, out.Dir)
		}
	}
	r.Net.noteProgress()
	if tr := r.Net.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: r.Net.Cycle, Kind: trace.EvSA,
			Node: int32(r.ID), Port: int16(vc.OutPort), VC: int16(vc.OutVC),
			Pkt: f.Pkt.ID, Arg: int64(f.Seq)})
		if f.IsTail() {
			tr.Record(trace.Event{Cycle: r.Net.Cycle, Kind: trace.EvVCRelease,
				Node: int32(r.ID), Port: int16(in.Dir), VC: int16(vc.ID),
				Pkt: f.Pkt.ID})
		}
	}
	if in.CreditOut != nil {
		in.CreditOut.Send(Credit{VC: vc.ID, Count: 1, Free: f.IsTail()})
	}
	if f.IsTail() {
		vc.Release()
	}
}
