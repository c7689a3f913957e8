package noc

// VCState is the allocation state of an input-port virtual channel.
type VCState int

const (
	// VCIdle means no packet owns the VC.
	VCIdle VCState = iota
	// VCActive means a packet's head flit has arrived and the packet
	// owns the VC until its tail flit departs (single packet per VC).
	VCActive
)

// VC is one input-port virtual channel: a flit FIFO plus the per-packet
// allocation state used by the router pipeline. Networks carve their
// VCs from a flat slab (layout.go), so the struct is padded to exactly
// two cache lines with the fields the pipeline's eligibility checks
// read packed into the first.
type VC struct {
	// First line: everything va/sa eligibility checks and sync touch.
	n    int
	head int

	State VCState
	// Routing/allocation state for the owner packet.
	OutPort int // granted output port, -1 until VA succeeds
	OutVC   int // granted downstream VC, -1 until VA succeeds

	Pkt *Packet // owner packet while Active

	// FFMode marks the VC as owned by the Free-Flow engine: the normal
	// pipeline must not route, allocate or switch its flits.
	FFMode bool
	// occ mirrors this VC's contribution to Router.occupied: the VC
	// buffers flits the regular pipeline may act on (non-empty, not
	// Free-Flow).
	occ bool

	// VA failure memo (see Router.vaFused): memoN is the number of
	// candidate ports the head's last fused allocation tried and failed
	// on (0 = no memo), memoPort those ports, memoGen (second line)
	// their free generations at the time, and memoDraw whether the
	// attempt drew the routing tie-break from the network RNG. Derived
	// state: sync clears it and checkpoints never carry it.
	memoN    uint8
	memoDraw bool
	memoPort [2]uint8

	ID int

	// Second line.
	buf   []Flit
	Depth int

	// Liveness bookkeeping for reactive/subactive schemes.
	ActiveSince int64 // cycle the head flit arrived
	LastMove    int64 // cycle a flit last departed this VC

	// in is the input port holding this VC, or nil for standalone VCs
	// constructed outside a Network (unit tests); the active-set
	// bookkeeping in sync no-ops without it.
	in *InputPort

	memoGen [2]uint32 // candidate ports' OutputPort.freeGen snapshot
}

// NewVC returns an idle VC with the given identifier and flit capacity.
func NewVC(id, depth int) *VC {
	return &VC{ID: id, Depth: depth, buf: make([]Flit, depth), OutPort: -1, OutVC: -1}
}

// Len returns the number of buffered flits.
func (v *VC) Len() int { return v.n }

// Empty reports whether no flits are buffered.
func (v *VC) Empty() bool { return v.n == 0 }

// Full reports whether the buffer has no free slots.
func (v *VC) Full() bool { return v.n == v.Depth }

// Front returns the flit at the head of the FIFO. It panics if empty.
func (v *VC) Front() Flit {
	if v.n == 0 {
		panic("noc: Front of empty VC")
	}
	return v.buf[v.head]
}

// At returns the i-th buffered flit (0 = front).
func (v *VC) At(i int) Flit {
	if i < 0 || i >= v.n {
		panic("noc: VC.At out of range")
	}
	p := v.head + i
	if p >= v.Depth {
		p -= v.Depth
	}
	return v.buf[p]
}

// Push appends a flit. It panics on overflow (a flow-control violation,
// which the simulator treats as a bug, never silently drops).
func (v *VC) Push(f Flit) {
	if v.Full() {
		panic("noc: VC overflow (flow control violation)")
	}
	p := v.head + v.n
	if p >= v.Depth {
		p -= v.Depth
	}
	v.buf[p] = f
	v.n++
	if v.n == 1 {
		// Pushing onto a non-empty buffer is invisible to the active
		// sets: the front flit, the occupancy flag and the allocation
		// state are all unchanged, so sync would recompute exactly what
		// is already there. Only the empty -> non-empty edge can flip
		// anything.
		v.sync()
	}
}

// Pop removes and returns the front flit. It panics if empty.
func (v *VC) Pop() Flit {
	f := v.Front()
	v.buf[v.head] = Flit{}
	v.head++
	if v.head == v.Depth {
		v.head = 0
	}
	v.n--
	v.sync()
	return f
}

// popSend is Pop specialized for switch traversal (Router.sendFlit):
// the VC is allocated (OutVC >= 0), Active and not in Free-Flow mode,
// so of the state sync recomputes only the emptied transition can
// change — the VA bit is already clear (allocated) and the SA bit
// already set, and both stay put while flits remain. Behavior-identical
// to Pop for such VCs, minus the full recompute per flit.
func (v *VC) popSend() Flit {
	f := v.buf[v.head]
	v.buf[v.head] = Flit{}
	v.head++
	if v.head == v.Depth {
		v.head = 0
	}
	v.n--
	if v.n == 0 {
		in := v.in
		v.occ = false
		in.Router.occupied--
		in.saSet.clear(v.ID)
		in.Router.vaSet.clear(in.vaBase + v.ID)
	}
	return f
}

// Activate marks the VC as owned by pkt (head flit arrival).
func (v *VC) Activate(pkt *Packet, cycle int64) {
	if v.State != VCIdle {
		panic("noc: activating non-idle VC (single packet per VC violated)")
	}
	v.State = VCActive
	v.Pkt = pkt
	v.OutPort = -1
	v.OutVC = -1
	v.ActiveSince = cycle
	v.LastMove = cycle
	v.sync()
}

// Release returns the VC to Idle (tail flit departed).
func (v *VC) Release() {
	if v.n != 0 {
		panic("noc: releasing VC with buffered flits")
	}
	v.State = VCIdle
	v.Pkt = nil
	v.OutPort = -1
	v.OutVC = -1
	v.FFMode = false
	v.sync()
}

// grant records a successful VC allocation: the owner packet now holds
// downstream VC outVC at output port outPort. The caller marks the
// downstream mirror Busy.
func (v *VC) grant(outPort, outVC int) {
	v.OutPort = outPort
	v.OutVC = outVC
	v.sync()
}

// EnterFF hands the VC to the Free-Flow engine: any downstream grant
// must already have been returned by the caller; the regular pipeline
// stops routing, allocating and switching its flits until Release.
func (v *VC) EnterFF() {
	v.OutPort = -1
	v.OutVC = -1
	v.FFMode = true
	v.sync()
}

// sync recomputes this VC's active-set contribution after any state
// change: the router-level occupancy count that gates stepping the
// router at all, the VA candidate bit (unallocated head buffered) and
// the SA candidate bit (allocated packet with flits buffered). It also
// drops the VA failure memo, which is only valid for the head it was
// recorded against. Bits are
// conservative — the pipeline re-checks full eligibility at visit time
// — but a VC the pipeline could act on must always be flagged, or the
// scheduler would skip real work (the activity invariant; see
// CheckActiveSets).
func (v *VC) sync() {
	v.memoN = 0
	in := v.in
	if in == nil {
		return
	}
	occ := v.n > 0 && !v.FFMode
	if occ != v.occ {
		v.occ = occ
		if occ {
			in.Router.occupied++
		} else {
			in.Router.occupied--
		}
	}
	if !occ {
		in.Router.vaSet.clear(in.vaBase + v.ID)
		in.saSet.clear(v.ID)
		return
	}
	alloc := v.OutVC >= 0
	in.Router.vaSet.assign(in.vaBase+v.ID,
		!alloc && v.State == VCActive && v.buf[v.head].IsHead())
	in.saSet.assign(v.ID, alloc && v.State == VCActive)
}

// HasWholePacket reports whether every flit of the owner packet is
// buffered (nothing already departed, nothing still in flight). Atomic
// packet moves (SPIN spins, SWAP swaps, DRAIN drains) and FF upgrades
// require this.
func (v *VC) HasWholePacket() bool {
	return v.State == VCActive && v.n == v.Pkt.Size && v.Front().IsHead()
}

// BlockedFor returns how many cycles the owner packet's front flit has
// failed to move, or 0 if the VC is idle/empty.
func (v *VC) BlockedFor(cycle int64) int64 {
	if v.State != VCActive || v.n == 0 {
		return 0
	}
	since := v.LastMove
	if v.ActiveSince > since {
		since = v.ActiveSince
	}
	return cycle - since
}
