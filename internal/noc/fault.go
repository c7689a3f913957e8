package noc

import (
	"seec/internal/fault"
	"seec/internal/trace"
)

// This file wires the fault injector (internal/fault) into the
// network. The design never deletes a flit in flight — that would
// violate the conservation invariants the simulator panics on.
// Instead, faults mark the shared packet as damaged while its flits
// keep flowing, and the destination NIC detects the damage on tail
// arrival (checksum for corruption, a lost marker for glitches, drops
// and dead-link traversals), discards the packet, and the end-to-end
// ACK/NACK/timeout protocol retransmits it from the source's bounded
// retry buffer. All hooks are nil-guarded on Network.Faults, so the
// fault-free hot path costs one branch per site and stays 0 allocs/op.

// SetFaults installs a fault injector, registering every
// router-to-router data link with it. NIC links (injection/ejection
// wiring) are deliberately not registered: they are local to the node
// and exempt from faults, like the schemes' sideband channels. Passing
// nil removes the injector.
func (n *Network) SetFaults(inj *fault.Injector) {
	n.Faults = inj
	if inj == nil {
		return
	}
	inj.SetNodes(n.Cfg.Nodes())
	for id, r := range n.Routers {
		for d := North; d <= West; d++ {
			out := r.Out[d]
			if out == nil || out.Link == nil {
				continue
			}
			out.Link.lid = inj.RegisterLink(out.Link.Name, id, n.Cfg.Neighbor(id, d))
		}
	}
}

// pktCsum is the checksum a NIC computes over a packet's invariant
// header at injection and verifies at ejection (FNV-1a over the fields
// a corruption could silently flip). Transaction-invariant: a
// retransmission of the same transaction carries the same checksum.
func pktCsum(p *Packet) uint32 {
	h := uint32(2166136261)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint32(v&0xff)) * 16777619
			v >>= 8
		}
	}
	mix(uint64(p.Src))
	mix(uint64(p.Dst))
	mix(uint64(p.Class))
	mix(uint64(p.Size))
	mix(uint64(p.Created))
	return h
}

// applyLinkFaults runs the per-traversal fault draws for a flit about
// to be delivered across a registered link (phase A). Dead links
// damage every flit they carry; alive links draw one transient fault
// per flit from the injector's private stream.
func (n *Network) applyLinkFaults(l *DataLink, f Flit) {
	fi := n.Faults
	if fi.HasDead() && fi.LinkDead(l.lid) {
		fi.NoteDeadTraversal()
		f.Pkt.FaultLost = true
		if tr := n.Tracer; tr != nil {
			tr.Record(trace.Event{Cycle: n.Cycle, Kind: trace.EvFaultDead,
				Node: -1, Port: -1, VC: -1, Pkt: f.Pkt.ID})
		}
		return
	}
	switch fi.DrawFlit() {
	case fault.FaultNone:
		return
	case fault.FaultGlitch:
		f.Pkt.FaultLost = true
		n.traceFaultFlit(f.Pkt, 1)
	case fault.FaultCorrupt:
		// Payload damage: the checksum stored at injection no longer
		// matches the recomputed one at ejection.
		f.Pkt.Csum ^= 0xa5a5a5a5
		n.traceFaultFlit(f.Pkt, 2)
	case fault.FaultDrop:
		f.Pkt.FaultLost = true
		n.traceFaultFlit(f.Pkt, 3)
	}
}

func (n *Network) traceFaultFlit(p *Packet, kind int64) {
	if tr := n.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: n.Cycle, Kind: trace.EvFaultFlit,
			Node: -1, Port: -1, VC: -1, Pkt: p.ID, Arg: kind})
	}
}

// faultTick runs once per cycle (after link delivery, before traffic
// generation): permanent faults scheduled for this cycle fire, due
// ACK/NACKs are processed, retransmission timeouts trigger, and every
// resulting retransmission is enqueued at its source NIC.
func (n *Network) faultTick() {
	fi := n.Faults
	var retx []fault.Retx
	var died []int
	retx, died = fi.Tick(n.Cycle, n.retxScratch[:0], n.diedScratch[:0])
	n.retxScratch, n.diedScratch = retx, died
	if tr := n.Tracer; tr != nil {
		for _, lid := range died {
			tr.Record(trace.Event{Cycle: n.Cycle, Kind: trace.EvFaultDead,
				Node: -1, Port: -1, VC: -1})
			_ = lid
		}
	}
	for _, rx := range retx {
		n.NICs[rx.Src].enqueueRetx(rx)
		if tr := n.Tracer; tr != nil {
			tr.Record(trace.Event{Cycle: n.Cycle, Kind: trace.EvRetransmit,
				Node: int32(rx.Src), Port: -1, VC: -1, Pkt: rx.Txn, Arg: int64(rx.Attempt)})
		}
	}
}

// PathAlive reports whether every directed link along a router path
// (consecutive adjacent router ids) is alive. The express engines call
// it before launching a Free-Flow worm so a faulted corridor skips the
// turn instead of streaming flits into a dead link.
func (n *Network) PathAlive(path []int) bool {
	fi := n.Faults
	if fi == nil || !fi.HasDead() {
		return true
	}
	for i := 0; i+1 < len(path); i++ {
		if fi.DeadLinkID(path[i], path[i+1]) >= 0 {
			return false
		}
	}
	return true
}

// LinkAlive reports whether the directed link from router a to
// adjacent router b is alive (true when no injector is installed).
func (n *Network) LinkAlive(a, b int) bool {
	fi := n.Faults
	if fi == nil || !fi.HasDead() {
		return true
	}
	return fi.DeadLinkID(a, b) < 0
}

// discardEjected frees an ejection VC whose packet the fault layer
// rejected (damaged, corrupt or duplicate): credits return upstream
// exactly as a consumed packet's would, and the discard counts as
// ejection progress — the watchdog must not mistake active recovery
// for a stall.
func (n *NIC) discardEjected(vcID int, out fault.Outcome) {
	ej := n.Ej[vcID]
	p := ej.Pkt
	n.EjCreditOut.Send(Credit{VC: vcID, Count: ej.creditsUsed, Free: true})
	ej.Pkt = nil
	ej.Flits = 0
	ej.creditsUsed = 0
	ej.Reserved = false
	n.ejOccupied--
	n.Net.InFlight--
	n.Net.noteProgress()
	n.Net.lastConsume = n.Net.Cycle
	if tr := n.Net.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: n.Net.Cycle, Kind: trace.EvPktDiscard,
			Node: int32(n.Node), Port: -1, VC: int16(vcID), Pkt: p.ID, Arg: int64(out)})
	}
	if n.Net.recycle {
		n.Net.freePkts = append(n.Net.freePkts, p)
	}
}

// enqueueRetx re-enqueues a tracked transaction as a new physical
// packet at the head of its class queue (retransmissions are not made
// to wait behind the new-packet backlog). The packet keeps the
// transaction's original Created cycle so latency statistics stay
// honest, and is not re-counted as an injected packet.
func (n *NIC) enqueueRetx(rx fault.Retx) {
	n.Net.nextPktID++
	var p *Packet
	if free := n.Net.freePkts; n.Net.recycle && len(free) > 0 {
		p = free[len(free)-1]
		free[len(free)-1] = nil
		n.Net.freePkts = free[:len(free)-1]
	} else {
		p = new(Packet)
	}
	*p = Packet{
		ID:      n.Net.nextPktID,
		Src:     n.Node,
		Dst:     rx.Dst,
		Class:   rx.Class,
		Size:    rx.Size,
		Created: rx.Created,
		MinHops: n.Net.Cfg.MinHops(n.Node, rx.Dst),
		Txn:     rx.Txn,
		Attempt: rx.Attempt,
	}
	p.Csum = pktCsum(p)
	n.push(rx.Class, nil)
	q := n.Queues[rx.Class]
	copy(q[1:], q)
	q[0] = p
	n.Net.InFlight++
}
