package noc

// Helpers for schemes that move whole packets between buffers outside
// the regular pipeline: SPIN's synchronized spins, SWAP's pair-wise
// swaps and DRAIN's ring rotations all exchange fully buffered packets
// between VCs atomically (legal under single-packet-per-VC VCT: a
// blocked packet is entirely resident in one VC). The helpers keep the
// upstream credit mirrors consistent; the hardware equivalents maintain
// this bookkeeping with their own sideband FSMs.

// UpstreamMirror returns the OutVC mirror slice that tracks router r's
// input port p: the neighboring router's output port for cardinal
// ports, the NIC's local mirror for the local port.
func (n *Network) UpstreamMirror(r, p int) []OutVC {
	if p == Local {
		return n.NICs[r].LocalMirror
	}
	nb := n.Cfg.Neighbor(r, p)
	if nb < 0 {
		panic("noc: UpstreamMirror of edge port")
	}
	return n.Routers[nb].Out[Opposite(p)].VCs
}

// SlotFree reports whether VC v at input port p of router r can accept
// an atomically placed packet: the VC is idle AND its upstream mirror
// is unclaimed (a busy mirror with an idle VC means a head flit is in
// flight on the link — placing a packet there would collide with it).
func (n *Network) SlotFree(r, p, v int) bool {
	vc := n.Routers[r].In[p].VCs[v]
	return vc.State == VCIdle && !n.UpstreamMirror(r, p)[v].Busy
}

// DesiredPort returns the deterministic productive direction a blocked
// packet is treated as waiting on by reactive/subactive schemes (probe
// chains need a stable choice; the X-dimension candidate is preferred,
// matching the fixed priority a hardware comparator would implement).
func (n *Network) DesiredPort(r *Router, pkt *Packet) int {
	var dirs [2]int
	return r.productiveDirs(pkt.Dst, dirs[:0])[0]
}

// ExtractPacket atomically removes the whole packet from VC v at input
// port p of router r, releasing the VC, restoring upstream credits and
// dropping any downstream VC grant the packet held. It panics if the
// packet is not fully buffered.
func (n *Network) ExtractPacket(r, p, v int) []Flit {
	rt := n.Routers[r]
	vc := rt.In[p].VCs[v]
	if !vc.HasWholePacket() {
		panic("noc: ExtractPacket of partially buffered packet")
	}
	if vc.OutVC >= 0 {
		rt.Out[vc.OutPort].FreeVC(vc.OutVC)
	}
	pkt := vc.Pkt
	flits := make([]Flit, 0, pkt.Size)
	for !vc.Empty() {
		flits = append(flits, vc.Pop())
	}
	vc.Release()
	n.UpstreamMirror(r, p)[v].Credits += pkt.Size
	// Free the upstream mirror through its owner (see UpstreamMirror).
	if p == Local {
		n.NICs[r].FreeLocalVC(v)
	} else {
		n.Routers[n.Cfg.Neighbor(r, p)].Out[Opposite(p)].FreeVC(v)
	}
	return flits
}

// PlacePacket atomically deposits a whole packet (as returned by
// ExtractPacket) into VC v at input port p of router r, which must be
// idle, and claims it in the upstream mirror.
func (n *Network) PlacePacket(r, p, v int, flits []Flit) {
	vc := n.Routers[r].In[p].VCs[v]
	if vc.State != VCIdle {
		panic("noc: PlacePacket into non-idle VC")
	}
	pkt := flits[0].Pkt
	vc.Activate(pkt, n.Cycle)
	for _, f := range flits {
		vc.Push(f)
	}
	m := &n.UpstreamMirror(r, p)[v]
	m.Busy = true
	m.Credits -= pkt.Size
	n.Energy.BufferWrites += int64(pkt.Size)
	n.NoteProgress()
}

// SeedPacket fabricates a fully buffered packet directly inside VC v
// at input port p of router r, with consistent credit bookkeeping.
// It is scaffolding for tests that construct precise network states —
// most importantly deterministic deadlock cycles — without depending
// on traffic randomness.
func (n *Network) SeedPacket(r, p, v int, spec PacketSpec) *Packet {
	if !n.SlotFree(r, p, v) {
		panic("noc: SeedPacket into an occupied or claimed slot")
	}
	n.nextPktID++
	pkt := &Packet{
		ID:       n.nextPktID,
		Src:      r,
		Dst:      spec.Dst,
		Class:    spec.Class,
		Size:     spec.Size,
		Created:  n.Cycle,
		Injected: n.Cycle,
		MinHops:  n.Cfg.MinHops(r, spec.Dst),
		Tag:      spec.Tag,
	}
	flits := make([]Flit, spec.Size)
	for i := range flits {
		flits[i] = NewFlit(pkt, i)
	}
	n.PlacePacket(r, p, v, flits)
	n.InFlight++
	n.Collector.NoteInjected(pkt.Created, pkt.Size)
	return pkt
}

// EjectDirect deposits a whole packet into a free ejection VC at the
// destination NIC, bypassing the local output port's switch (used by
// DRAIN when a rotating packet passes its destination). It returns
// false if no ejection VC of the packet's class is free.
func (n *Network) EjectDirect(flits []Flit) bool {
	pkt := flits[0].Pkt
	nic := n.NICs[pkt.Dst]
	out := n.Routers[pkt.Dst].Out[Local]
	e := n.Cfg.EjectVCsPerClass
	for i := 0; i < e; i++ {
		idx := nic.EjIndex(pkt.Class, i)
		if nic.Ej[idx].Pkt == nil && !nic.Ej[idx].Reserved && !out.VCs[idx].Busy {
			out.VCs[idx].Busy = true
			for _, f := range flits {
				nic.ReceiveFF(f, idx)
			}
			n.NoteProgress()
			return true
		}
	}
	return false
}
