package express

import (
	"seec/internal/noc"
	"seec/internal/trace"
)

// engine holds the machinery shared by SEEC and mSEEC: ejection-VC
// reservation (including proactive reservation for turns that were
// skipped), the per-NIC previous-FF-origin trackers, the periodic
// NIC-queue search trigger, and packet upgrading.
type engine struct {
	opts Options
	n    *noc.Network

	// reservedEj[nic*classes+class] is a proactively reserved ejection
	// VC (Corollary 1: a class that missed its turn reserves the next
	// VC that frees and keeps it until its turn comes), or -1.
	reservedEj  []int
	wantReserve []bool
	// skipStreak counts consecutive missed turns per (nic, class). The
	// proactive lock engages only from the second consecutive miss:
	// a single miss at high load is routine churn, and locking an
	// ejection VC for a whole rotation on every miss starves regular
	// ejection network-wide. Liveness is preserved — under a real
	// deadlock the misses repeat and the lock engages — and the number
	// of misses stays bounded as Corollary 1 requires.
	skipStreak []int

	prevOrigin []origin // per NIC (§3.9 Prev FF Origin Tracker)

	lastNICSearch int64

	Stats Stats
}

func (e *engine) attach(n *noc.Network) {
	e.n = n
	k := n.Cfg.Nodes() * n.Cfg.Classes
	e.reservedEj = make([]int, k)
	for i := range e.reservedEj {
		e.reservedEj[i] = -1
	}
	e.wantReserve = make([]bool, k)
	e.skipStreak = make([]int, k)
	e.prevOrigin = make([]origin, n.Cfg.Nodes())
	for i := range e.prevOrigin {
		e.prevOrigin[i] = origin{router: -1, inport: -1}
	}
}

// turnKey indexes per-(nic, class) state.
func (e *engine) turnKey(nic, class int) int { return nic*e.n.Cfg.Classes + class }

// proactiveReserve claims a freed ejection VC for every (nic, class)
// that missed its turn (§3.3: "once a message class that missed its
// turn gets a free ejection VC, it is pro-actively reserved").
func (e *engine) proactiveReserve() {
	for key, want := range e.wantReserve {
		if !want {
			continue
		}
		nic := key / e.n.Cfg.Classes
		class := key % e.n.Cfg.Classes
		if ej, ok := e.reserveEj(nic, class); ok {
			e.reservedEj[key] = ej
			e.wantReserve[key] = false
		}
	}
}

// reserveEj reserves a free ejection VC of the class at the NIC,
// marking both the NIC-side VC and the router-side credit mirror (the
// NIC is adjacent to its router; the reservation is local wiring).
func (e *engine) reserveEj(nicID, class int) (int, bool) {
	nic := e.n.NICs[nicID]
	out := e.n.Routers[nicID].Out[noc.Local]
	cnt := e.n.Cfg.EjectVCsPerClass
	for i := 0; i < cnt; i++ {
		idx := nic.EjIndex(class, i)
		if nic.Ej[idx].Pkt == nil && !nic.Ej[idx].Reserved && !out.VCs[idx].Busy {
			nic.Ej[idx].Reserved = true
			out.VCs[idx].Busy = true
			return idx, true
		}
	}
	return 0, false
}

// acquireEj returns the ejection VC to use for a turn: the proactive
// reservation if one exists, otherwise a fresh reservation. On failure
// the turn is marked for proactive reservation.
func (e *engine) acquireEj(nicID, class int) (int, bool) {
	key := e.turnKey(nicID, class)
	if ej := e.reservedEj[key]; ej >= 0 {
		e.reservedEj[key] = -1
		e.skipStreak[key] = 0
		return ej, true
	}
	if ej, ok := e.reserveEj(nicID, class); ok {
		e.skipStreak[key] = 0
		return ej, true
	}
	e.skipStreak[key]++
	if e.skipStreak[key] >= 2 {
		e.wantReserve[key] = true
	}
	e.Stats.TurnsSkipped++
	return 0, false
}

// unreserveEj releases a reservation after a seeker returned empty.
func (e *engine) unreserveEj(nicID, ejIdx int) {
	e.n.NICs[nicID].Ej[ejIdx].Reserved = false
	e.n.Routers[nicID].Out[noc.Local].FreeVC(ejIdx)
	if tr := e.n.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: e.n.Cycle, Kind: trace.EvSeekerReturn,
			Node: int32(nicID), Port: -1, VC: int16(ejIdx)})
	}
}

// makeSeeker builds a seeker, arming the NIC-queue search on every
// seeker (period 0, the default) or when the period has elapsed.
func (e *engine) makeSeeker(nicID, class, ejIdx int, walk []int, searchAt []bool) *seeker {
	sk := &seeker{nic: nicID, class: class, ejIdx: ejIdx, walk: walk, searchAt: searchAt, launch: e.n.Cycle, oldest: e.opts.OldestFirst}
	if e.opts.NICSearchPeriod <= 0 || e.n.Cycle-e.lastNICSearch >= e.opts.NICSearchPeriod {
		sk.searchNIC = true
		e.lastNICSearch = e.n.Cycle
	}
	e.Stats.SeekersSent++
	if tr := e.n.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: e.n.Cycle, Kind: trace.EvSeekerLaunch,
			Node: int32(nicID), Port: -1, VC: int16(ejIdx), Arg: int64(class)})
	}
	return sk
}

// freeze marks the matched packet as Free-Flow so the regular pipeline
// stops touching it, releasing any downstream VC it had been granted
// (no flits have moved: the match required the whole packet buffered).
// A NIC-queue match is pulled out of the injection queue immediately —
// the worm may launch cycles later (mSEEC corridor wait) and the NIC
// must not inject the packet in the meantime.
func (e *engine) freeze(m match) {
	m.pkt.FF = true
	m.pkt.FFCycle = e.n.Cycle
	if tr := e.n.Tracer; tr != nil {
		tr.Record(trace.Event{Cycle: e.n.Cycle, Kind: trace.EvSeekerMatch,
			Node: int32(m.router), Port: int16(m.inport), VC: int16(m.vc),
			Pkt: m.pkt.ID, Arg: e.n.Cycle - m.pkt.Created})
		tr.Record(trace.Event{Cycle: e.n.Cycle, Kind: trace.EvFFUpgrade,
			Node: int32(m.router), Port: int16(m.inport), VC: int16(m.vc),
			Pkt: m.pkt.ID, Arg: int64(m.pkt.Dst)})
	}
	if m.inport >= 0 {
		vc := e.n.Routers[m.router].In[m.inport].VCs[m.vc]
		if vc.OutVC >= 0 {
			e.n.Routers[m.router].Out[vc.OutPort].FreeVC(vc.OutVC)
		}
		vc.EnterFF()
	} else {
		e.n.NICs[m.router].RemoveQueued(m.pkt.Class, m.vc)
		m.pkt.Injected = e.n.Cycle
	}
}

// launchWorm hands the frozen packet to the FF engine along path
// (origin router first, destination last) and records the FF origin
// for the round-robin search policy.
func (e *engine) launchWorm(sk *seeker, m match, path []int) *worm {
	var w *worm
	if m.inport < 0 {
		// NIC injection-queue hit (§3.7 corner case): the packet never
		// entered the network (freeze already dequeued it); its flits
		// launch straight from the NIC.
		w = newWorm(m.pkt, path, sk.ejIdx, nil, nil)
		e.Stats.QueueUpgrades++
	} else {
		in := e.n.Routers[m.router].In[m.inport]
		w = newWorm(m.pkt, path, sk.ejIdx, in.VCs[m.vc], in)
		e.Stats.Upgrades++
	}
	e.prevOrigin[sk.nic] = origin{router: m.router, inport: m.inport}
	return w
}
