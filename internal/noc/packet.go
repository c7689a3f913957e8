package noc

import "fmt"

// Packet is the unit of routing and VC allocation. Packets are broken
// into flits to match link bandwidth (one flit per link per cycle).
type Packet struct {
	ID    uint64
	Src   int // source node
	Dst   int // destination node
	Class int // protocol message class
	Size  int // length in flits

	Created  int64 // cycle the packet entered the source NIC queue
	Injected int64 // cycle the head flit left the NIC into the router

	Hops    int // hops traversed so far (incremented on head arrival)
	MinHops int // Manhattan distance src->dst

	// Free-Flow state (managed by the express package).
	FF        bool  // packet has been upgraded to Free-Flow
	FFCycle   int64 // cycle of upgrade
	FFDropped bool  // internal: packet fully handed to the FF engine

	// Fault-injection state (managed by the fault layer; all zero when
	// no injector is installed).
	Txn       uint64 // end-to-end transaction id, 0 = untracked
	Attempt   int    // transmission attempt of Txn this packet carries
	Csum      uint32 // header checksum stamped at injection
	FaultLost bool   // a flit was glitched/dropped or crossed a dead link

	// Tag is opaque storage for traffic generators (e.g. the coherence
	// engine stores transaction pointers here).
	Tag any
}

// String implements fmt.Stringer.
func (p *Packet) String() string {
	ff := ""
	if p.FF {
		ff = " FF"
	}
	return fmt.Sprintf("pkt#%d %d->%d class=%d size=%d%s", p.ID, p.Src, p.Dst, p.Class, p.Size, ff)
}

// Flit is one link-width slice of a packet. Seq 0 is the head; Seq ==
// Size-1 is the tail. Single-flit packets are simultaneously head and
// tail. The tail bit is fixed at construction (NewFlit), so telling a
// tail from a body flit never loads the Packet.
type Flit struct {
	Pkt  *Packet
	Seq  int32
	tail bool
}

// NewFlit returns flit seq of pkt, with the tail bit derived from the
// packet's size. Build flits only through it: a Flit literal leaves the
// tail bit unset, which CheckInvariants reports.
func NewFlit(pkt *Packet, seq int) Flit {
	return Flit{Pkt: pkt, Seq: int32(seq), tail: seq == pkt.Size-1}
}

// IsHead reports whether f is the packet's head flit.
func (f Flit) IsHead() bool { return f.Seq == 0 }

// IsTail reports whether f is the packet's tail flit.
func (f Flit) IsTail() bool { return f.tail }

// Valid reports whether the flit carries a packet.
func (f Flit) Valid() bool { return f.Pkt != nil }

// String implements fmt.Stringer.
func (f Flit) String() string {
	if f.Pkt == nil {
		return "flit<nil>"
	}
	kind := "B"
	switch {
	case f.IsHead() && f.IsTail():
		kind = "HT"
	case f.IsHead():
		kind = "H"
	case f.IsTail():
		kind = "T"
	}
	return fmt.Sprintf("%s[%s]", f.Pkt, kind)
}

// PacketSpec describes a packet a traffic source wants to enqueue at a
// NIC.
type PacketSpec struct {
	Dst   int
	Class int
	Size  int
	Tag   any
}
