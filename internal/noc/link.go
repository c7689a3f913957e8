package noc

// linkPayload is what travels on a data link for one cycle: a flit plus
// the downstream VC it was allocated to.
type linkPayload struct {
	flit Flit
	vc   int
}

// DataLink is a unidirectional one-cycle link. A payload written during
// phase B of cycle t is delivered to the link's endpoint during phase A
// of cycle t+1. At most one flit may be sent per cycle; a second send in
// the same cycle is a simulator bug and panics.
type DataLink struct {
	// First line: everything Send and deliver touch.
	pending linkPayload
	busy    bool

	// The receiving endpoint: a router input port, or (for a router's
	// local output) the NIC's ejection side. Exactly one is set;
	// delivery calls its method directly.
	in  *InputPort
	nic *NIC

	// net, when set, receives the link into its active delivery list on
	// Send; Step then only visits links that actually carry something.
	// busy doubles as the registration guard (one Send per cycle).
	net *Network

	// lid is the link's id in the fault injector's registry, or -1 for
	// links exempt from faults (NIC wiring, or no injector installed).
	lid int

	// Second line.
	Name string

	_ [48]byte // pad to 128 (see layout.go size pins)
}

// Send stages a flit for delivery next cycle.
func (l *DataLink) Send(f Flit, vc int) {
	if l.busy {
		panic("noc: two flits on link " + l.Name + " in one cycle")
	}
	l.pending = linkPayload{flit: f, vc: vc}
	l.busy = true
	if l.net != nil {
		l.net.activeData = append(l.net.activeData, l)
	}
}

// Busy reports whether a flit was already sent this cycle.
func (l *DataLink) Busy() bool { return l.busy }

// deliver flushes the staged flit into the endpoint (phase A).
func (l *DataLink) deliver() {
	if !l.busy {
		return
	}
	p := l.pending
	l.pending = linkPayload{}
	l.busy = false
	if l.lid >= 0 && l.net != nil && l.net.Faults != nil {
		l.net.applyLinkFaults(l, p.flit)
	}
	if l.in != nil {
		l.in.receiveFlit(p.flit, p.vc)
	} else {
		l.nic.receiveEject(p.flit, p.vc)
	}
}

// Credit is a flow-control token returned upstream: Count buffer slots
// freed in VC, with Free set when the tail departed and the VC returned
// to Idle.
type Credit struct {
	VC    int
	Count int
	Free  bool
}

// CreditLink is a unidirectional one-cycle credit channel. Unlike data
// links, several credits may be staged per cycle (e.g. multiple ejection
// VCs consumed by a NIC in the same cycle).
type CreditLink struct {
	// pending holds the credits staged this cycle. It starts as a view
	// of slots, which cover a router input port's usual cycle (one
	// switch traversal plus a Free-Flow pop), so staging touches only
	// the link's own lines. A link that stages more (a NIC consuming
	// several packets at once, several worms leaving one port) appends
	// past the slots once and then reuses the grown array.
	pending []Credit

	// net, when set, receives the link into its active delivery list on
	// the first Send of a cycle (len(pending) going 0→1 guards against
	// double registration).
	net *Network

	// The receiving endpoint: a router output port's credit mirror, or
	// (for a router's local input) the NIC's local mirror. Exactly one
	// is set; delivery calls its method directly.
	out *OutputPort

	// slots[0] completes the first line, which then holds everything a
	// one-credit cycle touches.
	slots [2]Credit
	nic   *NIC

	_ [32]byte // pad to 128 (see layout.go size pins)
}

// Send stages a credit for delivery next cycle. Count may be zero when
// only the Free signal matters (e.g. consuming a packet that arrived via
// Free-Flow, which never consumed credits).
func (l *CreditLink) Send(c Credit) {
	if len(l.pending) == 0 && l.net != nil {
		l.net.activeCredit = append(l.net.activeCredit, l)
	}
	l.pending = append(l.pending, c)
}

// deliver flushes staged credits (phase A).
func (l *CreditLink) deliver() {
	if out := l.out; out != nil {
		for _, c := range l.pending {
			out.applyCredit(c)
		}
	} else {
		for _, c := range l.pending {
			l.nic.applyCredit(c)
		}
	}
	l.pending = l.pending[:0]
}
