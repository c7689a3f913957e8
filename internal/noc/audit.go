package noc

import "fmt"

// CheckInvariants audits the whole network's flow-control bookkeeping
// and returns an error describing the first violation found. It is a
// test/debug facility meant to be called between cycles (after Step
// returns); every scheme — including the ones that move packets
// outside the pipeline (SPIN, SWAP, DRAIN, Free-Flow) — must keep
// these invariants or credits would leak and buffers would eventually
// corrupt silently.
//
// Invariants per (sender mirror, receiver VC) pair:
//
//	credits: mirror.Credits + buffered flits + in-flight flit
//	         + credits staged on the credit link == VCDepth
//	busy:    mirror.Busy  <=>  the receiver VC is owned (Active), or a
//	         flit is in flight toward it, or its free signal is staged,
//	         or an upstream packet holds an unspent allocation to it,
//	         or (ejection VCs) it holds/reserves a packet.
func (n *Network) CheckInvariants() error {
	for _, r := range n.Routers {
		for d := North; d <= West; d++ {
			out := r.Out[d]
			if out == nil {
				continue
			}
			nb := n.Routers[out.DownRouter]
			in := nb.In[Opposite(d)]
			for v := range out.VCs {
				if err := n.checkPair(&out.VCs[v], r, out, in, v); err != nil {
					return fmt.Errorf("router %d port %s vc %d: %w", r.ID, DirName(d), v, err)
				}
			}
		}
		// Local input port: the NIC is the sender.
		nic := n.NICs[r.ID]
		in := r.In[Local]
		for v := range nic.LocalMirror {
			if err := n.checkNICInject(nic, in, v); err != nil {
				return fmt.Errorf("nic %d inject vc %d: %w", r.ID, v, err)
			}
		}
		// Local output port: the NIC ejection VCs are the receivers.
		for v := range r.Out[Local].VCs {
			if err := n.checkEject(r, nic, v); err != nil {
				return fmt.Errorf("router %d eject vc %d: %w", r.ID, v, err)
			}
		}
	}
	if err := n.checkMemos(); err != nil {
		return err
	}
	if err := n.checkTailBits(); err != nil {
		return err
	}
	return n.CheckActiveSets()
}

// checkTailBits audits the tail bit NewFlit fixed at construction
// against the packet, for every buffered flit and every flit staged on
// a data link: the pipeline trusts the bit and never reads Pkt.Size.
func (n *Network) checkTailBits() error {
	for _, r := range n.Routers {
		for p := 0; p < NumPorts; p++ {
			in := r.In[p]
			if in == nil {
				continue
			}
			for _, vc := range in.VCs {
				for i := 0; i < vc.Len(); i++ {
					if err := tailBitErr(vc.At(i)); err != nil {
						return fmt.Errorf("router %d port %s vc %d flit %d: %w", r.ID, DirName(p), vc.ID, i, err)
					}
				}
			}
		}
	}
	for _, l := range n.dataLinks {
		if !l.busy {
			continue
		}
		if err := tailBitErr(l.pending.flit); err != nil {
			return fmt.Errorf("data link %s: %w", l.Name, err)
		}
	}
	return nil
}

// tailBitErr reports a flit whose tail bit disagrees with Seq == Size-1.
func tailBitErr(f Flit) error {
	if f.Pkt == nil {
		return fmt.Errorf("flit without a packet")
	}
	if want := int(f.Seq) == f.Pkt.Size-1; f.IsTail() != want {
		return fmt.Errorf("tail bit %v on flit %d of a %d-flit packet", f.IsTail(), f.Seq, f.Pkt.Size)
	}
	return nil
}

// checkMemos audits the allocation memos against the decisions they
// stand in for. Memos exist only on the fused path. A VC whose VA
// failure memo is current (no candidate port freed a VC since) must be
// a VA-eligible head that the generic DefaultVA.Select still cannot
// allocate, drawing the tie-break exactly when the memo says so; a NIC
// marked injBlocked must have no queue head SelectInject could place.
// Select runs on a copy of the RNG, so the audit never perturbs the
// stream.
func (n *Network) checkMemos() error {
	for _, r := range n.Routers {
		for p := 0; p < NumPorts; p++ {
			in := r.In[p]
			if in == nil {
				continue
			}
			for _, vc := range in.VCs {
				if vc.memoN == 0 {
					continue
				}
				where := fmt.Sprintf("router %d port %s vc %d", r.ID, DirName(p), vc.ID)
				if !n.vaFast {
					return fmt.Errorf("%s: VA memo off the fused path", where)
				}
				if vc.State != VCActive || vc.FFMode || vc.OutVC >= 0 || vc.Empty() || !vc.Front().IsHead() {
					return fmt.Errorf("%s: VA memo on a VC with no unallocated head", where)
				}
				if !r.memoCurrent(vc) {
					continue
				}
				orig := n.Rng
				cp := *orig
				n.Rng = &cp
				a, ok := DefaultVA{Kind: n.vaKind}.Select(r, in, vc)
				n.Rng = orig
				if ok {
					return fmt.Errorf("%s: current VA memo but Select grants port %s vc %d",
						where, DirName(a.OutPort), a.OutVC)
				}
				if drew := cp.State() != orig.State(); drew != vc.memoDraw {
					return fmt.Errorf("%s: VA memo draw=%v but Select draw=%v", where, vc.memoDraw, drew)
				}
			}
		}
	}
	for id, nic := range n.NICs {
		if !nic.injBlocked {
			continue
		}
		if !n.vaFast || nic.cur != nil {
			return fmt.Errorf("nic %d: injection memo off the fused path or mid-packet", id)
		}
		for c, q := range nic.Queues {
			if len(q) == 0 {
				continue
			}
			if v, ok := n.VA.SelectInject(n.Routers[id], nic.LocalMirror, q[0]); ok {
				return fmt.Errorf("nic %d: injection memo set but class %d head fits local vc %d", id, c, v)
			}
		}
	}
	return nil
}

// CheckActiveSets audits the activity tracking that lets Step skip
// quiescent routers, NICs and links. The invariant is one-directional:
// any entity the skipped code path could act on MUST be flagged active
// (a stale flag merely wastes a visit; a missing one silently freezes
// real traffic). The occupancy counters must additionally agree exactly
// with the per-VC flags they aggregate.
func (n *Network) CheckActiveSets() error {
	for _, r := range n.Routers {
		occ := 0
		for p := 0; p < NumPorts; p++ {
			in := r.In[p]
			if in == nil {
				continue
			}
			for _, vc := range in.VCs {
				buffering := vc.Len() > 0 && !vc.FFMode
				if vc.occ {
					occ++
				}
				if buffering && !vc.occ {
					return fmt.Errorf("router %d port %s vc %d: buffering but not counted occupied",
						r.ID, DirName(p), vc.ID)
				}
				vaElig := vc.State == VCActive && !vc.FFMode && vc.OutVC < 0 &&
					!vc.Empty() && vc.Front().IsHead()
				if vaElig && !r.vaSet.get(in.vaBase+vc.ID) {
					return fmt.Errorf("router %d port %s vc %d: VA-eligible but absent from vaSet",
						r.ID, DirName(p), vc.ID)
				}
				saCand := vc.State == VCActive && !vc.FFMode && !vc.Empty() && vc.OutVC >= 0
				if saCand && !in.saSet.get(vc.ID) {
					return fmt.Errorf("router %d port %s vc %d: SA candidate but absent from saSet",
						r.ID, DirName(p), vc.ID)
				}
			}
		}
		if occ > r.occupied {
			return fmt.Errorf("router %d: occupied=%d but %d VCs carry the occ flag",
				r.ID, r.occupied, occ)
		}
		if occ < r.occupied {
			return fmt.Errorf("router %d: occupied=%d overcounts the %d flagged VCs",
				r.ID, r.occupied, occ)
		}
		// Layout consistency: the vcAt lookup table (the bit-index ->
		// view shortcut the VA scan trusts) must agree with the per-port
		// VC slices, and the normalized round-robin pointers must be in
		// range — the scans index with them directly, no reduction.
		nvcs := n.nvcs
		for p := 0; p < NumPorts; p++ {
			in := r.In[p]
			if in == nil {
				for v := 0; v < nvcs; v++ {
					if r.vcAt[p*nvcs+v] != nil {
						return fmt.Errorf("router %d: vcAt has a VC at missing port %s", r.ID, DirName(p))
					}
				}
				continue
			}
			for v, vc := range in.VCs {
				if r.vcAt[in.vaBase+v] != vc {
					return fmt.Errorf("router %d port %s vc %d: vcAt disagrees with In.VCs",
						r.ID, DirName(p), v)
				}
			}
			if in.saPtr < 0 || in.saPtr >= len(in.VCs) {
				return fmt.Errorf("router %d port %s: input saPtr %d out of [0,%d)",
					r.ID, DirName(p), in.saPtr, len(in.VCs))
			}
			if out := r.Out[p]; out != nil && (out.saPtr < 0 || out.saPtr >= NumPorts) {
				return fmt.Errorf("router %d port %s: output saPtr %d out of [0,%d)",
					r.ID, DirName(p), out.saPtr, NumPorts)
			}
		}
	}
	if n.vaRoundMod != ((n.vaRound%n.vaTotal)+n.vaTotal)%n.vaTotal {
		return fmt.Errorf("vaRoundMod=%d disagrees with vaRound=%d mod %d",
			n.vaRoundMod, n.vaRound, n.vaTotal)
	}
	for id, nic := range n.NICs {
		queued := 0
		for _, q := range nic.Queues {
			queued += len(q)
		}
		if queued != nic.backlog {
			return fmt.Errorf("nic %d: backlog=%d but %d packets queued", id, nic.backlog, queued)
		}
		held := 0
		for _, ej := range nic.Ej {
			if ej.Pkt != nil {
				held++
			}
		}
		if held != nic.ejOccupied {
			return fmt.Errorf("nic %d: ejOccupied=%d but %d ejection VCs held", id, nic.ejOccupied, held)
		}
	}
	inData := make(map[*DataLink]bool, len(n.activeData))
	for _, l := range n.activeData {
		inData[l] = true
	}
	for _, l := range n.dataLinks {
		if l.busy && !inData[l] {
			return fmt.Errorf("data link %s: staged flit but absent from active list", l.Name)
		}
	}
	inCredit := make(map[*CreditLink]bool, len(n.activeCredit))
	for _, l := range n.activeCredit {
		inCredit[l] = true
	}
	for _, l := range n.creditLinks {
		if len(l.pending) > 0 && !inCredit[l] {
			return fmt.Errorf("credit link with %d staged credits absent from active list", len(l.pending))
		}
	}
	marked := make(map[*OutputPort]bool, len(n.ffMarked))
	for _, o := range n.ffMarked {
		marked[o] = true
	}
	for _, r := range n.Routers {
		for _, o := range r.Out {
			if o != nil && o.FFReserved && !marked[o] {
				return fmt.Errorf("router %d port %s: FFReserved but absent from clear list",
					r.ID, DirName(o.Dir))
			}
		}
	}
	return nil
}

// linkHolds reports whether the data link has a staged flit for vc.
func linkHolds(l *DataLink, vc int) int {
	if l != nil && l.busy && l.pending.vc == vc {
		return 1
	}
	return 0
}

// stagedCredits sums staged credit counts for vc and reports whether a
// free signal is staged.
func stagedCredits(l *CreditLink, vc int) (count int, free bool) {
	if l == nil {
		return 0, false
	}
	for _, c := range l.pending {
		if c.VC == vc {
			count += c.Count
			if c.Free {
				free = true
			}
		}
	}
	return count, free
}

// allocatedUpstream reports whether any input VC of router r holds an
// allocation (granted, tail not yet sent) to (outPort, outVC).
func allocatedUpstream(r *Router, outPort, outVC int) bool {
	for p := 0; p < NumPorts; p++ {
		in := r.In[p]
		if in == nil {
			continue
		}
		for _, vc := range in.VCs {
			if vc.State == VCActive && vc.OutPort == outPort && vc.OutVC == outVC {
				return true
			}
		}
	}
	return false
}

// checkPair audits one router-to-router mirror/VC pair.
func (n *Network) checkPair(m *OutVC, sender *Router, out *OutputPort, in *InputPort, v int) error {
	vc := in.VCs[v]
	inflight := linkHolds(out.Link, v)
	staged, free := stagedCredits(in.CreditOut, v)
	total := m.Credits + vc.Len() + inflight + staged
	if total != n.Cfg.VCDepth {
		return fmt.Errorf("credit leak: mirror=%d buffered=%d inflight=%d staged=%d, want sum %d",
			m.Credits, vc.Len(), inflight, staged, n.Cfg.VCDepth)
	}
	owned := vc.State == VCActive || inflight > 0 || free || allocatedUpstream(sender, out.Dir, v)
	if m.Busy != owned {
		return fmt.Errorf("busy mismatch: mirror=%v but owned=%v (state=%d inflight=%d free=%v)",
			m.Busy, owned, vc.State, inflight, free)
	}
	return nil
}

// checkNICInject audits one NIC-to-router local input pair.
func (n *Network) checkNICInject(nic *NIC, in *InputPort, v int) error {
	m := &nic.LocalMirror[v]
	vc := in.VCs[v]
	inflight := linkHolds(nic.InjLink, v)
	staged, free := stagedCredits(in.CreditOut, v)
	total := m.Credits + vc.Len() + inflight + staged
	if total != n.Cfg.VCDepth {
		return fmt.Errorf("credit leak: mirror=%d buffered=%d inflight=%d staged=%d, want sum %d",
			m.Credits, vc.Len(), inflight, staged, n.Cfg.VCDepth)
	}
	streaming := nic.cur != nil && nic.curVC == v
	owned := vc.State == VCActive || inflight > 0 || free || streaming
	if m.Busy != owned {
		return fmt.Errorf("busy mismatch: mirror=%v but owned=%v", m.Busy, owned)
	}
	return nil
}

// checkEject audits one router-to-NIC ejection pair. FF deposits skip
// credits entirely, so only credited flits participate in the credit
// identity.
func (n *Network) checkEject(r *Router, nic *NIC, v int) error {
	out := r.Out[Local]
	m := &out.VCs[v]
	ej := nic.Ej[v]
	inflight := linkHolds(out.Link, v)
	staged, free := stagedCredits(nic.EjCreditOut, v)
	total := m.Credits + ej.creditsUsed + inflight + staged
	if total != n.Cfg.EjectDepth() {
		return fmt.Errorf("credit leak: mirror=%d credited=%d inflight=%d staged=%d, want sum %d",
			m.Credits, ej.creditsUsed, inflight, staged, n.Cfg.EjectDepth())
	}
	owned := ej.Pkt != nil || ej.Reserved || inflight > 0 || free || allocatedUpstream(r, Local, v)
	if m.Busy != owned {
		return fmt.Errorf("busy mismatch: mirror=%v but owned=%v (pkt=%v reserved=%v)",
			m.Busy, owned, ej.Pkt, ej.Reserved)
	}
	return nil
}
