package noc

import "seec/internal/trace"

// OutVC mirrors the state of one downstream virtual channel, as tracked
// by the upstream sender (credit-based flow control, §2.1). Busy means
// the downstream VC is allocated to a packet; Credits counts free flit
// slots.
type OutVC struct {
	Busy    bool
	Credits int
}

// InputPort is one router input: a set of VCs plus the credit channel
// back to the upstream sender.
type InputPort struct {
	// First line: what flit arrival, SA stage 1 and the schemes' VC
	// scans read.
	Router *Router

	// vcs is the port's run of the network's VC slab (vcs[i] is
	// VCs[i]); the pipeline indexes it directly rather than loading a
	// pointer from the view table.
	vcs []VC
	VCs []*VC

	saPtr int // round-robin pointer for SA stage 1, always in [0, len(VCs))

	// Second line: what VC.sync and switch traversal also touch.
	// saSet flags VCs that may hold a sendable flit (allocated, non-FF,
	// non-empty); SA stage 1 scans only these. Maintained by VC.sync.
	saSet bitset
	// vaBase is this port's bit offset (Dir * TotalVCs) into the
	// router-level vaSet.
	vaBase int
	// CreditOut returns credits to whoever feeds this port (the
	// neighboring router's output port, or the local NIC).
	CreditOut *CreditLink
	Dir       int

	_ [16]byte // pad to 128 (see layout.go size pins)
}

// FreeVCs counts Idle VCs in the half-open index range [lo, hi).
func (p *InputPort) FreeVCs(lo, hi int) int {
	n := 0
	for i := lo; i < hi && i < len(p.VCs); i++ {
		if p.VCs[i].State == VCIdle {
			n++
		}
	}
	return n
}

// receiveFlit is the data-link endpoint for this port: buffer write
// plus VC activation on head arrival.
func (p *InputPort) receiveFlit(f Flit, vcID int) {
	vc := &p.vcs[vcID]
	net := p.Router.Net
	if f.IsHead() {
		vc.Activate(f.Pkt, net.Cycle)
	}
	vc.Push(f)
	net.Energy.BufferWrites++
	if tr := net.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: net.Cycle, Kind: trace.EvLink,
			Node: int32(p.Router.ID), Port: int16(p.Dir), VC: int16(vcID),
			Pkt: f.Pkt.ID, Arg: int64(f.Seq)})
		if f.IsHead() {
			tr.Record(trace.Event{Cycle: net.Cycle, Kind: trace.EvVCAlloc,
				Node: int32(p.Router.ID), Port: int16(p.Dir), VC: int16(vcID),
				Pkt: f.Pkt.ID})
		}
	}
}

// OutputPort is one router output: the data link to the downstream
// input port (or NIC ejection), and the credit-tracked mirror of the
// downstream VC states.
type OutputPort struct {
	Router *Router
	Dir    int
	Link   *DataLink
	VCs    []OutVC

	// DownRouter is the id of the router this port feeds, or -1 when
	// the port feeds the local NIC.
	DownRouter int

	// FFReserved marks that the Free-Flow engine owns this port's link
	// for the current cycle (lookahead semantics); regular SA must not
	// grant it. Set via ReserveFF; cleared at the start of every cycle.
	FFReserved bool

	// freeGen counts the port's downstream-VC Busy->false transitions.
	// A head whose fused VC allocation failed snapshots the generations
	// of its candidate ports; while they are unchanged no VC it could
	// take has freed, so the allocation provably fails again (the VA
	// failure memo, DESIGN.md §10.6). Bumped only by FreeVC; it shares
	// the first cache line with VCs, which allocation reads anyway.
	freeGen uint32

	saPtr int // round-robin pointer for SA stage 2, always in [0, NumPorts)

	_ [56]byte // pad to 128 (see layout.go size pins)
}

// ReserveFF marks the port's link as owned by the Free-Flow engine for
// the current cycle and registers it for the start-of-cycle clear (the
// network only visits registered ports instead of sweeping every port
// of every router). Idempotent within a cycle.
func (o *OutputPort) ReserveFF() {
	if o.FFReserved {
		return
	}
	o.FFReserved = true
	if o.Router != nil && o.Router.Net != nil {
		n := o.Router.Net
		n.ffMarked = append(n.ffMarked, o)
	}
}

// FreeDownVCs counts non-busy downstream VCs in [lo, hi), the quantity
// adaptive routing consults ("number of free VCs at the downstream
// routers", §4.1).
func (o *OutputPort) FreeDownVCs(lo, hi int) int {
	n := 0
	for i := lo; i < hi && i < len(o.VCs); i++ {
		if !o.VCs[i].Busy {
			n++
		}
	}
	return n
}

// FreeVC marks downstream VC v as no longer allocated. It is the only
// way a mirror's Busy flag may go from true to false: it advances the
// port's free generation, which the VA failure memo keys on. Schemes
// that release a downstream grant outside the credit path (Free-Flow
// freezes, seeker reservations) must call it rather than write Busy.
func (o *OutputPort) FreeVC(v int) {
	o.VCs[v].Busy = false
	o.freeGen++
}

// applyCredit is the credit-link endpoint for this port.
func (o *OutputPort) applyCredit(c Credit) {
	o.VCs[c.VC].Credits += c.Count
	if c.Free {
		o.FreeVC(c.VC)
	}
}
