package express

import "seec/internal/noc"

// origin records where the last FF packet was selected for a NIC
// (<router-id, inport-id>, §3.9 "Prev FF Origin Tracker"); the next
// seeker from that NIC begins its search just after it, implementing
// the round-robin QoS policy of §3.3.
type origin struct {
	router int
	inport int
}

// seeker is the token a destination NIC circulates over the sideband
// path to find a packet to upgrade (Table 2). It moves one router per
// cycle; each hop costs SeekerBits of sideband activity (§3.6).
type seeker struct {
	nic   int // initiating NIC / destination of the future FF packet
	class int
	ejIdx int // ejection VC reserved before launch

	walk     []int  // routers visited, one per cycle; walk[0] is the launch router
	searchAt []bool // whether to search the router at each walk position
	pos      int
	launch   int64 // cycle the seeker was inserted (Table 3 seek-time stats)

	// searchNIC additionally searches NIC injection queues at each
	// visited router (the §3.7 protocol corner case, every N cycles).
	searchNIC bool

	// oldest switches the selection policy from first-match to
	// oldest-packet-wins: the seeker completes its whole circulation
	// and remembers the most senior candidate (the §4.3 QoS
	// direction). The candidate is re-validated at upgrade time since
	// it kept moving rights while the seeker walked.
	oldest bool
	best   match
	bestOk bool
}

// match describes a packet found by a seeker. pktID and created are
// snapshots taken at match time: a match may be held across cycles
// (oldest-first circulation) during which the packet can eject and —
// under packet recycling — its *Packet object be reused for a brand-new
// packet, so any read through the stale pointer must first establish
// identity via pktID (IDs are never reused).
type match struct {
	router  int
	inport  int // noc port index; -1 for a NIC injection-queue hit
	vc      int // VC index at the inport; queue index for queue hits
	pkt     *noc.Packet
	pktID   uint64
	created int64
}

// done reports whether the seeker has finished its walk without a
// match (it "circulated back to the original router", §3.3).
func (s *seeker) done() bool { return s.pos >= len(s.walk)-1 }

// advance moves the seeker one hop and searches the new router if the
// walk enables searching there. It returns a match if one was found.
// The launch cycle searches walk[0] (pos 0) before the first hop.
func (s *seeker) advance(n *noc.Network, prev origin) (match, bool) {
	if s.pos > 0 || len(s.walk) == 1 {
		// Moving costs one sideband hop (the launch-cycle search of
		// walk[0] does not).
		n.Energy.AddSideband(SeekerBits)
	}
	if s.searchAt[s.pos] {
		if m, ok := s.search(n, s.walk[s.pos], prev); ok {
			if !s.oldest {
				return m, true
			}
			if !s.bestOk || m.created < s.best.created {
				s.best = m
				s.bestOk = true
			}
		}
	}
	s.pos++
	return match{}, false
}

// takeBest returns the remembered oldest candidate if it is still
// upgradeable (it may have moved on or ejected while the seeker
// finished its circulation).
func (s *seeker) takeBest(n *noc.Network) (match, bool) {
	if !s.bestOk {
		return match{}, false
	}
	m := s.best
	if m.pkt.ID != m.pktID || m.pkt.FF {
		// ID mismatch: the candidate ejected and its object was recycled
		// — exactly the case the re-validation below would reject.
		return match{}, false
	}
	if m.inport >= 0 {
		vc := n.Routers[m.router].In[m.inport].VCs[m.vc]
		if vc.State != noc.VCActive || vc.Pkt != m.pkt || vc.FFMode {
			return match{}, false
		}
		if n.Cfg.Buffering == noc.Wormhole {
			if vc.Empty() || !vc.Front().IsHead() {
				return match{}, false
			}
		} else if !vc.HasWholePacket() {
			return match{}, false
		}
		return m, true
	}
	// Queue candidate: the index may have shifted; relocate by pointer
	// (the ID check above established the pointer is still the packet).
	for qi, pkt := range n.NICs[m.router].QueuedPackets(s.class) {
		if pkt == m.pkt {
			m.vc = qi
			return m, true
		}
	}
	return match{}, false
}

// search scans router r's input VCs (and, when enabled, its NIC
// injection queues) for a whole buffered packet destined for (s.nic,
// s.class) that is not already Free-Flow. The inport scan starts just
// after prev.inport when r is the previous FF origin router (§3.3
// round-robin policy). The paper reports this as a single-cycle
// parallel compare of dest-id and message-class across all input VCs
// (§3.10); we therefore complete it within the visit cycle.
func (s *seeker) search(n *noc.Network, r int, prev origin) (match, bool) {
	var local match
	localOk := false
	note := func(m match) (match, bool) {
		if !s.oldest {
			return m, true
		}
		if !localOk || m.created < local.created {
			local, localOk = m, true
		}
		return match{}, false
	}
	rt := n.Routers[r]
	start := 0
	if prev.router == r {
		start = prev.inport + 1
	}
	for k := 0; k < noc.NumPorts; k++ {
		p := (start + k) % noc.NumPorts
		in := rt.In[p]
		if in == nil {
			continue
		}
		for _, vc := range in.VCs {
			if vc.State != noc.VCActive || vc.FFMode || vc.Pkt.FF {
				continue
			}
			if vc.Pkt.Dst != s.nic || vc.Pkt.Class != s.class {
				continue
			}
			if n.Cfg.Buffering == noc.Wormhole {
				// §3.11: "The seeker need only examine the flit at the
				// front of a given VC queue, only upgrading it if it is
				// a head flit"; trailing flits then follow in FF mode.
				if vc.Empty() || !vc.Front().IsHead() {
					continue
				}
			} else if !vc.HasWholePacket() {
				// VCT: mid-transfer packets are skipped; they become
				// whole at the downstream router within bounded time
				// and a later seeker will find them (§3.11).
				continue
			}
			if m, done := note(match{router: r, inport: p, vc: vc.ID,
				pkt: vc.Pkt, pktID: vc.Pkt.ID, created: vc.Pkt.Created}); done {
				return m, true
			}
		}
	}
	if s.searchNIC {
		for qi, pkt := range n.NICs[r].QueuedPackets(s.class) {
			if pkt.Dst == s.nic && !pkt.FF {
				if m, done := note(match{router: r, inport: -1, vc: qi,
					pkt: pkt, pktID: pkt.ID, created: pkt.Created}); done {
					return m, true
				}
			}
		}
	}
	return local, localOk
}
