package noc

import (
	"seec/internal/fault"
	"seec/internal/stats"
	"seec/internal/trace"
)

// EjVC is one ejection virtual channel at a NIC. The paper's system
// assumption (§3.3): the NIC has per-message-class ejection VCs even
// when the network itself runs a single unified VC pool.
type EjVC struct {
	Class int
	Pkt   *Packet // packet currently occupying the VC (head arrived)
	Flits int     // flits of Pkt received so far

	// Reserved marks a SEEC reservation: the express controller has
	// claimed this VC for a future FF packet. The router-side mirror is
	// marked Busy at the same time, so regular VA cannot allocate it.
	Reserved bool

	// creditsUsed counts flits that consumed router-side credits
	// (normal ejection). FF deliveries bypass credits entirely.
	creditsUsed int

	_ [24]byte // pad to 64 (see layout.go size pins)
}

// Complete reports whether a whole packet is buffered and consumable.
func (e *EjVC) Complete() bool { return e.Pkt != nil && e.Flits == e.Pkt.Size }

// NIC is a network interface: per-class injection queues feeding the
// router's local input port, and per-class ejection VCs fed by the
// router's local output port.
type NIC struct {
	Node int
	Net  *Network

	// Queues holds not-yet-injected packets, one FIFO per message class.
	// Each queue is a window onto the backing array in qBase, so
	// dequeue (popHead) is O(1) however long the backlog grows.
	Queues [][]*Packet

	classPtr int     // round-robin pointer over classes, always in [0, Classes)
	cur      *Packet // packet currently streaming into the router
	curFlit  int
	curVC    int

	// LocalMirror tracks the state of the router's local input VCs
	// (the NIC is the "upstream" of that port).
	LocalMirror []OutVC

	InjLink     *DataLink   // NIC -> router local input port
	EjCreditOut *CreditLink // NIC -> router local output port (ejection credits)

	Ej []*EjVC // ejection VCs, class-major: Ej[class*E+i]

	// backlog counts packets across all injection queues; while it is
	// zero and no packet is mid-stream, inject is a provable no-op and
	// Step skips it.
	backlog int
	// ejOccupied counts ejection VCs holding a (possibly partial)
	// packet; while zero, consume is a provable no-op and Step skips it.
	ejOccupied int

	_ [8]byte // holds later fields at their tuned offsets (layout.go)

	// qBase[c] is the start of Queues[c]'s backing array, so a drained
	// queue rewinds to it and a full one can slide back over the slots
	// dequeue left behind (see push).
	qBase [][]*Packet

	// injBlocked memoizes a failed pickNext on the fused allocation
	// path: every queued head found its local VCs busy, and nothing
	// pickNext reads has changed since. Cleared when LocalMirror frees
	// a VC (FreeLocalVC) or a queue changes; derived state, never
	// checkpointed.
	injBlocked bool

	_ [7]byte // pad to 192 (see layout.go size pins)
}

// EjIndex returns the index in Ej of ejection VC i of the given class.
func (n *NIC) EjIndex(class, i int) int {
	return class*n.Net.Cfg.EjectVCsPerClass + i
}

// CanEnqueue reports whether the class's injection queue has room.
func (n *NIC) CanEnqueue(class int) bool {
	cap := n.Net.Cfg.InjQueueCap
	return cap == 0 || len(n.Queues[class]) < cap
}

// QueuedPackets returns the injection queue for a class. The express
// seeker inspects these every N cycles (§3.7 corner case). Callers must
// not mutate the slice.
func (n *NIC) QueuedPackets(class int) []*Packet { return n.Queues[class] }

// RemoveQueued removes the i-th queued packet of a class (a seeker
// upgraded it straight out of the injection buffer).
func (n *NIC) RemoveQueued(class, i int) *Packet {
	q := n.Queues[class]
	p := q[i]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	n.Queues[class] = q[:len(q)-1]
	n.backlog--
	n.injBlocked = false
	return p
}

// push appends p to the class's injection queue. When the window has
// reached the end of its backing array it first slides the live
// packets back to the array's start if dequeue has left at least as
// many dead slots as there are live packets (so each slide is paid for
// by as many earlier dequeues), and otherwise moves to an array twice
// the size. Either way a queue costs O(1) amortized per packet.
func (n *NIC) push(class int, p *Packet) {
	q := n.Queues[class]
	if len(q) == cap(q) {
		base := n.qBase[class]
		if dead := cap(base) - cap(q); len(q) > 0 && dead >= len(q) {
			live := base[:len(q)]
			copy(live, q)
			clear(q)
			q = live
		} else {
			nq := make([]*Packet, len(q), 2*len(q)+4)
			copy(nq, q)
			n.qBase[class] = nq
			q = nq
		}
	}
	n.Queues[class] = append(q, p)
	n.backlog++
	n.injBlocked = false
}

// popHead dequeues the head of the class's injection queue in O(1):
// the slot is cleared and the window advances past it, rewinding to
// the backing array's start once the queue is empty.
func (n *NIC) popHead(class int) {
	q := n.Queues[class]
	q[0] = nil
	if len(q) == 1 {
		n.Queues[class] = n.qBase[class][:0]
	} else {
		n.Queues[class] = q[1:]
	}
	n.backlog--
}

// Enqueue creates a packet from spec and queues it for injection.
func (n *NIC) Enqueue(spec PacketSpec) *Packet {
	cfg := &n.Net.Cfg
	if spec.Size < 1 || spec.Size > cfg.MaxPacketSize {
		panic("noc: packet size out of range")
	}
	if spec.Class < 0 || spec.Class >= cfg.Classes {
		panic("noc: packet class out of range")
	}
	if spec.Dst < 0 || spec.Dst >= cfg.Nodes() {
		panic("noc: packet destination out of range")
	}
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
		Dst:     spec.Dst,
		Class:   spec.Class,
		Size:    spec.Size,
		Created: n.Net.Cycle,
		MinHops: cfg.MinHops(n.Node, spec.Dst),
		Tag:     spec.Tag,
	}
	if n.Net.Faults != nil {
		p.Csum = pktCsum(p)
	}
	n.push(spec.Class, p)
	n.Net.InFlight++
	n.Net.Collector.NoteInjected(p.Created, p.Size)
	return p
}

// inject advances the injection side by one cycle: at most one flit
// crosses the NIC->router link. A new packet is started only when a
// local input VC can be allocated (credit flow control from the very
// first hop); classes are served round-robin at packet boundaries, and
// a class whose head cannot get a VC this cycle does not block the
// others.
func (n *NIC) inject() {
	if n.cur == nil {
		if n.injBlocked {
			return
		}
		n.pickNext()
		if n.cur == nil {
			return
		}
	}
	m := &n.LocalMirror[n.curVC]
	if m.Credits <= 0 || n.InjLink.Busy() {
		return
	}
	f := NewFlit(n.cur, n.curFlit)
	m.Credits--
	n.InjLink.Send(f, n.curVC)
	n.Net.noteProgress()
	if f.IsHead() {
		n.cur.Injected = n.Net.Cycle
		if fi := n.Net.Faults; fi != nil && n.cur.Txn != 0 {
			fi.SentHead(n.cur.Txn, n.cur.Attempt, n.Net.Cycle)
		}
		if tr := n.Net.Tracer; tr != nil {
			tr.Record(trace.Event{Cycle: n.Net.Cycle, Kind: trace.EvInject,
				Node: int32(n.Node), Port: -1, VC: int16(n.curVC),
				Pkt: n.cur.ID, Arg: int64(n.cur.Dst)})
		}
	}
	n.curFlit++
	if n.curFlit == n.cur.Size {
		n.cur = nil
		n.curFlit = 0
	}
}

// pickNext selects the next packet to inject: round-robin over classes,
// first packet of the chosen queue, requires a free local input VC.
// On the fused allocation path (DefaultVA, no fault injector) a miss
// depends only on the queue heads and on which LocalMirror VCs are
// busy, so it is memoized in injBlocked until one of those changes.
func (n *NIC) pickNext() {
	classes := len(n.Queues)
	for k := 0; k < classes; k++ {
		c := n.classPtr + k // classPtr is always in [0, classes)
		if c >= classes {
			c -= classes
		}
		q := n.Queues[c]
		if len(q) == 0 {
			continue
		}
		pkt := q[0]
		// Retry-buffer backpressure: a new packet (Txn == 0) may not
		// start transmission while the source cannot track another
		// transaction; retransmissions (Txn != 0) always pass.
		if fi := n.Net.Faults; fi != nil && pkt.Txn == 0 && !fi.CanTrack(n.Node) {
			continue
		}
		v, ok := n.Net.VA.SelectInject(n.Net.Routers[n.Node], n.LocalMirror, pkt)
		if !ok {
			continue
		}
		n.popHead(c)
		n.LocalMirror[v].Busy = true
		if fi := n.Net.Faults; fi != nil && pkt.Txn == 0 {
			pkt.Txn = fi.Track(pkt.Src, pkt.Dst, pkt.Class, pkt.Size, pkt.Created, pkt.MinHops)
		}
		n.cur = pkt
		n.curFlit = 0
		n.curVC = v
		n.classPtr = c + 1
		if n.classPtr == classes {
			n.classPtr = 0
		}
		return
	}
	n.injBlocked = n.Net.vaFast
}

// FreeLocalVC marks the router's local input VC v as no longer
// allocated in the NIC's mirror. Like OutputPort.FreeVC it is the only
// way a LocalMirror Busy flag may fall, and it lifts the injection
// memo.
func (n *NIC) FreeLocalVC(v int) {
	n.LocalMirror[v].Busy = false
	n.injBlocked = false
}

// applyCredit is the endpoint for credits returned by the router's
// local input port.
func (n *NIC) applyCredit(c Credit) {
	n.LocalMirror[c.VC].Credits += c.Count
	if c.Free {
		n.FreeLocalVC(c.VC)
	}
}

// receiveEject is the data-link endpoint for the router's local output
// port: a flit arriving at an ejection VC through regular (credited)
// ejection.
func (n *NIC) receiveEject(f Flit, vcID int) {
	n.deposit(f, vcID, true)
}

// ReceiveFF deposits a Free-Flow flit directly into the (reserved)
// ejection VC. FF flits never consumed router-side credits, so none are
// returned for them at consumption time.
func (n *NIC) ReceiveFF(f Flit, vcID int) {
	n.deposit(f, vcID, false)
}

func (n *NIC) deposit(f Flit, vcID int, credited bool) {
	ej := n.Ej[vcID]
	if f.IsHead() {
		if ej.Pkt != nil {
			panic("noc: ejection VC collision (two packets in one ejection VC)")
		}
		ej.Pkt = f.Pkt
		ej.Flits = 0
		ej.creditsUsed = 0
		n.ejOccupied++
	}
	if ej.Pkt != f.Pkt {
		panic("noc: interleaved flits of different packets in one ejection VC")
	}
	ej.Flits++
	if credited {
		ej.creditsUsed++
	}
	n.Net.Energy.BufferWrites++
	if f.IsTail() {
		p := f.Pkt
		if fi := n.Net.Faults; fi != nil {
			out := fi.Arrived(p.Txn, p.Attempt, p.FaultLost, p.Csum != pktCsum(p), n.Net.Cycle)
			if out != fault.Accept {
				n.discardEjected(vcID, out)
				return
			}
		}
		rec := stats.PacketRecord{
			Created:    p.Created,
			Injected:   p.Injected,
			Received:   n.Net.Cycle,
			Hops:       p.Hops,
			MinHops:    p.MinHops,
			Flits:      p.Size,
			Class:      p.Class,
			FF:         p.FF,
			FFUpgraded: p.FFCycle,
		}
		n.Net.Collector.Record(rec)
	}
}

// consume tries to hand every complete ejected packet to the traffic
// sink. Terminating message classes always accept (the consumption
// assumption, §3.7); protocol-dependent sinks may refuse and the packet
// then keeps its ejection VC, providing real protocol backpressure.
func (n *NIC) consume() {
	for id, ej := range n.Ej {
		if !ej.Complete() {
			continue
		}
		if n.Net.Traffic != nil && !n.Net.Traffic.Deliver(n.Net.Cycle, ej.Pkt) {
			continue
		}
		n.EjCreditOut.Send(Credit{VC: id, Count: ej.creditsUsed, Free: true})
		p := ej.Pkt
		ej.Pkt = nil
		ej.Flits = 0
		ej.creditsUsed = 0
		ej.Reserved = false
		n.ejOccupied--
		n.Net.InFlight--
		n.Net.noteProgress()
		n.Net.lastConsume = n.Net.Cycle
		if tr := n.Net.Tracer; tr != nil {
			tr.Record(trace.Event{Cycle: n.Net.Cycle, Kind: trace.EvEject,
				Node: int32(n.Node), Port: -1, VC: int16(id), Pkt: p.ID,
				Arg: n.Net.Cycle - p.Created})
		}
		if n.Net.recycle {
			n.Net.freePkts = append(n.Net.freePkts, p)
		}
	}
}
