// Package express implements the paper's primary contribution: SEEC
// (stochastic escape express channel) and its mSEEC extension.
//
// A destination NIC reserves an ejection VC for one message class, then
// circulates a seeker token over a sideband path covering all routers.
// If the seeker finds a buffered packet destined for that (NIC, class),
// the packet is upgraded to Free-Flow (FF): its flits traverse the
// network bufferlessly over a minimal path, one hop per cycle, with a
// lookahead reserving each output link one cycle ahead so regular
// switch allocation yields. The FF packet needs no credits — its
// ejection slot was reserved before the seeker left — so it bypasses
// congestion and breaks any routing or protocol deadlock it was part
// of, with a single VC in the network (§3, §3.7).
package express

import (
	"fmt"

	"seec/internal/noc"
)

// Sideband widths from §3.6 of the paper: the seeker ring is a 10-16
// bit unidirectional path (we charge the worst case), the lookahead
// carries output port + destination id (10 bits for a 64-core mesh).
const (
	SeekerBits    = 16
	LookaheadBits = 10
)

// worm is one Free-Flow packet in flight: flits drain from the origin
// VC (or NIC injection queue) at one per cycle and ride the express
// path routers[0..] to the destination, where they enter the reserved
// ejection VC.
type worm struct {
	pkt     *noc.Packet
	routers []int // routers[0] = origin router, last = destination router
	ejIdx   int   // reserved ejection VC (class-major index at dst NIC)

	vc     *noc.VC        // origin VC, nil when launched from a NIC queue
	inport *noc.InputPort // origin input port (for upstream credits), nil for queue launches

	popped int   // flits that have left the origin so far
	pos    []int // in-flight flit positions: index into routers
	seq    []int // in-flight flit sequence numbers
	done   bool
}

// newWorm prepares the FF traversal of pkt along the given router path.
func newWorm(pkt *noc.Packet, routers []int, ejIdx int, vc *noc.VC, inport *noc.InputPort) *worm {
	return &worm{pkt: pkt, routers: routers, ejIdx: ejIdx, vc: vc, inport: inport}
}

// step advances the worm by one cycle: every in-flight flit moves one
// hop (reserving that hop's output link against regular SA — the
// lookahead), then the next flit leaves the origin. Returns true when
// the tail flit has entered the ejection VC.
func (w *worm) step(n *noc.Network) bool {
	if w.done {
		return true
	}
	// Advance in-flight flits, earliest-popped (farthest along) first.
	keep := 0
	for i := 0; i < len(w.pos); i++ {
		if w.pos[i] == len(w.routers)-1 {
			w.eject(n, w.seq[i])
		} else {
			w.hop(n, w.pos[i], w.seq[i])
			w.pos[keep] = w.pos[i] + 1
			w.seq[keep] = w.seq[i]
			keep++
		}
	}
	w.pos = w.pos[:keep]
	w.seq = w.seq[:keep]
	// Pop the next flit from the origin, if any remain. Popping and the
	// first link traversal happen in the same cycle (the flit bypasses
	// the origin router's buffers and crosses its crossbar directly).
	// In wormhole mode trailing flits may still be arriving from
	// upstream (§3.11: "the remaining flits of the packet that
	// subsequently arrive follow the head using FF"); the worm stalls
	// its tail until they do, while flits already in flight keep going.
	if w.popped < w.pkt.Size && (w.vc == nil || !w.vc.Empty()) {
		seq := w.popped
		if w.vc != nil {
			f := w.vc.Pop()
			if f.Pkt != w.pkt || int(f.Seq) != seq {
				panic("express: origin VC does not hold the FF packet's flits in order")
			}
			if w.inport != nil && w.inport.CreditOut != nil {
				w.inport.CreditOut.Send(noc.Credit{VC: w.vc.ID, Count: 1, Free: f.IsTail()})
			}
			if f.IsTail() {
				w.vc.Release()
			}
		}
		w.popped++
		n.NoteProgress()
		if len(w.routers) == 1 {
			// Origin router is the destination: straight to ejection.
			w.eject(n, seq)
		} else {
			w.hop(n, 0, seq)
			w.pos = append(w.pos, 1)
			w.seq = append(w.seq, seq)
		}
	}
	if w.popped == w.pkt.Size && len(w.pos) == 0 {
		w.done = true
	}
	return w.done
}

// hop moves a flit across the link from routers[i] to routers[i+1]:
// reserve the output port for this cycle (set up by last cycle's
// lookahead), charge link energy and lookahead sideband activity.
func (w *worm) hop(n *noc.Network, i, seq int) {
	from, to := w.routers[i], w.routers[i+1]
	dir := n.Cfg.DirTowards(from, to)
	out := n.Routers[from].Out[dir]
	if out.FFReserved {
		// Two FF flits on one directed link in one cycle would violate
		// the non-intersecting-paths guarantee of §3.1.
		panic("express: FF link collision on " + out.Link.Name)
	}
	if !n.LinkAlive(from, to) {
		// The link died after the worm launched (paths are checked alive
		// at launch). The flit still traverses — FF has no buffering to
		// hold it — but arrives damaged; the end-to-end protocol
		// retransmits the packet if it is tracked.
		w.pkt.FaultLost = true
		if fi := n.Faults; fi != nil {
			fi.NoteDeadTraversal()
		}
	}
	out.ReserveFF()
	n.Energy.AddDataHop()
	n.Energy.AddSideband(LookaheadBits)
	if seq == 0 {
		w.pkt.Hops++
	}
	n.NoteProgress()
}

// eject deposits flit seq into the reserved ejection VC at the
// destination NIC, preempting any ongoing regular ejection this cycle.
func (w *worm) eject(n *noc.Network, seq int) {
	dst := w.routers[len(w.routers)-1]
	n.Routers[dst].Out[noc.Local].ReserveFF()
	n.NICs[dst].ReceiveFF(noc.NewFlit(w.pkt, seq), w.ejIdx)
	n.NoteProgress()
}

// Links appends the directed links (from,to pairs) the worm's remaining
// traversal will use; used by mSEEC corridor-conflict assertions.
func (w *worm) Links(buf [][2]int) [][2]int {
	for i := 0; i+1 < len(w.routers); i++ {
		buf = append(buf, [2]int{w.routers[i], w.routers[i+1]})
	}
	return buf
}

func (w *worm) String() string {
	return fmt.Sprintf("FF(%v via %v)", w.pkt, w.routers)
}
