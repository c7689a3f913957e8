package noc

import (
	"fmt"
	"io"

	"seec/internal/checkpoint"
	"seec/internal/rng"
)

// This file implements checkpoint/restore for the credit-flow network:
// a complete serialization of every bit of mutable simulation state, so
// that save-at-C / restore / run-to-end is byte-identical to the
// uninterrupted run (the resume-identity contract, DESIGN.md §9).
//
// Checkpoints are taken between Steps. At that boundary the mutable
// state is: the cycle counters and RNG stream; every input VC (buffered
// flits, allocation state, liveness timestamps); the credit mirrors and
// round-robin pointers; the NIC injection queues, mid-stream packet and
// ejection VCs; the staged link payloads crossing the cycle boundary
// (activeData/activeCredit, in list order — delivery order drives the
// fault RNG); the FFReserved ports awaiting their start-of-cycle clear;
// and the stats/energy/traffic/scheme/fault components, each of which
// serializes itself via checkpoint.Stateful. Derived state — router
// occupancy counts, VA/SA candidate bitsets, NIC backlog/ejOccupied —
// is recomputed on restore, never trusted from the stream.
//
// Deliberately not serialized:
//   - The packet free list (freePkts). Packet pointer identity is
//     unobservable: Enqueue fully overwrites the reused object and all
//     outputs are value-based, so a resumed run allocating fresh
//     packets where the original recycled is byte-identical.
//   - The observability layer (Tracer/Metrics/Watchdog) — observe-only
//     by construction; whatever the restore target has installed keeps
//     running.
const secNetwork uint32 = 0x4E01

// maxActive bounds restored active-list lengths (each link can appear
// at most once per list).
const maxActive = 1 << 24

// normPtr reduces a restored round-robin pointer into [0, n). Format-v1
// writers stored the counter raw (any non-negative value; the scan
// reduced it); the hot path now requires the reduced form. Negative
// values only appear in corrupted streams that survived the CRC — clamp
// to 0 rather than hand the scanner an out-of-range index.
func normPtr(v, n int) int {
	if v < 0 || n <= 0 {
		return 0
	}
	return v % n
}

// ConfigHash identifies the configuration a checkpoint binds to: the
// simulator Config plus the installed scheme, VA policy and fault-layer
// presence. Two networks with equal hashes are structurally identical,
// which is what RestoreState assumes.
func (n *Network) ConfigHash() uint64 {
	h := rng.NewSeedHash(0x5EEC0C0DE)
	h = h.String(fmt.Sprintf("%+v", n.Cfg))
	name := ""
	if n.Scheme != nil {
		name = n.Scheme.Name()
	}
	h = h.String(name)
	h = h.String(fmt.Sprintf("%T%+v", n.VA, n.VA))
	fb := uint64(0)
	if n.Faults != nil {
		fb = 1
	}
	h = h.Uint64(fb)
	return h.Seed()
}

// Save writes a complete checkpoint of the network (and its attached
// traffic source, scheme and fault injector) to w, framed with the
// versioned container header and this network's ConfigHash.
func (n *Network) Save(w io.Writer) error {
	cw := checkpoint.NewWriter()
	if err := n.SaveState(cw); err != nil {
		return err
	}
	return cw.WriteTo(w, n.ConfigHash())
}

// Restore reads a checkpoint written by Save into the network. The
// container header (magic, version, config hash, payload length and
// CRC) is validated in full before any field of the network is
// mutated; a truncated or corrupted stream fails with a typed error
// and leaves the network untouched.
func (n *Network) Restore(r io.Reader) error {
	cr, err := checkpoint.NewReader(r, n.ConfigHash())
	if err != nil {
		return err
	}
	return n.RestoreState(cr)
}

// SavePacket writes a shared packet reference, emitting the packet body
// inline on first reference so aliasing survives the round trip.
func SavePacket(w *checkpoint.Writer, p *Packet) {
	if p == nil {
		w.Ref(nil)
		return
	}
	if !w.Ref(p) {
		return
	}
	w.U64(p.ID)
	w.Int(p.Src)
	w.Int(p.Dst)
	w.Int(p.Class)
	w.Int(p.Size)
	w.I64(p.Created)
	w.I64(p.Injected)
	w.Int(p.Hops)
	w.Int(p.MinHops)
	w.Bool(p.FF)
	w.I64(p.FFCycle)
	w.Bool(p.FFDropped)
	w.U64(p.Txn)
	w.Int(p.Attempt)
	w.U32(p.Csum)
	w.Bool(p.FaultLost)
	// Tag is not serialized: it is only used by closed-loop traffic
	// engines, which are rejected at save time (not Stateful).
}

// RestorePacket reads a reference written by SavePacket.
func RestorePacket(r *checkpoint.Reader) (*Packet, error) {
	v, inline := r.Ref()
	if !inline {
		if v == nil {
			return nil, r.Err()
		}
		p, ok := v.(*Packet)
		if !ok {
			return nil, fmt.Errorf("%w: shared ref is not a packet", checkpoint.ErrCorrupt)
		}
		return p, nil
	}
	p := &Packet{
		ID:      r.U64(),
		Src:     r.Int(),
		Dst:     r.Int(),
		Class:   r.Int(),
		Size:    r.Int(),
		Created: r.I64(),
	}
	p.Injected = r.I64()
	p.Hops = r.Int()
	p.MinHops = r.Int()
	p.FF = r.Bool()
	p.FFCycle = r.I64()
	p.FFDropped = r.Bool()
	p.Txn = r.U64()
	p.Attempt = r.Int()
	p.Csum = r.U32()
	p.FaultLost = r.Bool()
	r.AddRef(p)
	return p, r.Err()
}

// restoreFlit reads a flit as SaveState writes it: its packet, then Seq
// as an int. The tail bit is derived by NewFlit, like everywhere else.
func restoreFlit(r *checkpoint.Reader) (Flit, error) {
	p, err := RestorePacket(r)
	if err != nil {
		return Flit{}, err
	}
	seq := r.Int()
	if err := r.Err(); err != nil {
		return Flit{}, err
	}
	if p == nil {
		return Flit{}, fmt.Errorf("%w: buffered flit without a packet", checkpoint.ErrCorrupt)
	}
	return NewFlit(p, seq), nil
}

// SaveState serializes the network payload into w (no container
// framing; Save adds it). It fails with checkpoint.ErrUnsupported when
// the attached traffic source or scheme has no serialization.
func (n *Network) SaveState(w *checkpoint.Writer) error {
	var trafficState, schemeState checkpoint.Stateful
	if n.Traffic != nil {
		ts, ok := n.Traffic.(checkpoint.Stateful)
		if !ok {
			return fmt.Errorf("%w: traffic source %T", checkpoint.ErrUnsupported, n.Traffic)
		}
		trafficState = ts
	}
	if n.Scheme != nil {
		ss, ok := n.Scheme.(checkpoint.Stateful)
		if !ok {
			return fmt.Errorf("%w: scheme %s", checkpoint.ErrUnsupported, n.Scheme.Name())
		}
		schemeState = ss
	}

	w.Section(secNetwork)
	w.I64(n.Cycle)
	st := n.Rng.State()
	for _, v := range st {
		w.U64(v)
	}
	w.Int(n.InFlight)
	w.Bool(n.Frozen)
	w.I64(n.lastProgress)
	w.I64(n.lastConsume)
	w.U64(n.nextPktID)
	w.Int(n.vaRound)

	for _, r := range n.Routers {
		for d := 0; d < NumPorts; d++ {
			in := r.In[d]
			if in == nil {
				continue
			}
			w.Int(in.saPtr)
			for _, vc := range in.VCs {
				w.Int(int(vc.State))
				SavePacket(w, vc.Pkt)
				w.Int(vc.OutPort)
				w.Int(vc.OutVC)
				w.I64(vc.ActiveSince)
				w.I64(vc.LastMove)
				w.Bool(vc.FFMode)
				w.Int(vc.n)
				for i := 0; i < vc.n; i++ {
					f := vc.At(i)
					SavePacket(w, f.Pkt)
					w.Int(int(f.Seq))
				}
			}
		}
		for d := 0; d < NumPorts; d++ {
			out := r.Out[d]
			if out == nil {
				continue
			}
			w.Int(out.saPtr)
			for i := range out.VCs {
				w.Bool(out.VCs[i].Busy)
				w.Int(out.VCs[i].Credits)
			}
		}
	}

	for _, nic := range n.NICs {
		for _, q := range nic.Queues {
			w.Int(len(q))
			for _, p := range q {
				SavePacket(w, p)
			}
		}
		w.Int(nic.classPtr)
		SavePacket(w, nic.cur)
		w.Int(nic.curFlit)
		w.Int(nic.curVC)
		for i := range nic.LocalMirror {
			w.Bool(nic.LocalMirror[i].Busy)
			w.Int(nic.LocalMirror[i].Credits)
		}
		for _, ej := range nic.Ej {
			SavePacket(w, ej.Pkt)
			w.Int(ej.Flits)
			w.Bool(ej.Reserved)
			w.Int(ej.creditsUsed)
		}
	}

	// Staged link traffic crossing the cycle boundary, in active-list
	// order (delivery order is semantic under faults: one RNG draw per
	// delivered flit). Links are identified by their index in the
	// construction-ordered dataLinks/creditLinks slices.
	dataIdx := make(map[*DataLink]int, len(n.dataLinks))
	for i, l := range n.dataLinks {
		dataIdx[l] = i
	}
	creditIdx := make(map[*CreditLink]int, len(n.creditLinks))
	for i, l := range n.creditLinks {
		creditIdx[l] = i
	}
	w.Int(len(n.activeData))
	for _, l := range n.activeData {
		w.Int(dataIdx[l])
		SavePacket(w, l.pending.flit.Pkt)
		w.Int(int(l.pending.flit.Seq))
		w.Int(l.pending.vc)
	}
	w.Int(len(n.activeCredit))
	for _, l := range n.activeCredit {
		w.Int(creditIdx[l])
		w.Int(len(l.pending))
		for _, c := range l.pending {
			w.Int(c.VC)
			w.Int(c.Count)
			w.Bool(c.Free)
		}
	}
	w.Int(len(n.ffMarked))
	for _, o := range n.ffMarked {
		w.Int(o.Router.ID)
		w.Int(o.Dir)
	}

	n.Collector.SaveState(w)
	n.Energy.SaveState(w)
	w.Bool(trafficState != nil)
	if trafficState != nil {
		trafficState.SaveState(w)
	}
	w.Bool(schemeState != nil)
	if schemeState != nil {
		schemeState.SaveState(w)
	}
	w.Bool(n.Faults != nil)
	if n.Faults != nil {
		n.Faults.SaveState(w)
	}
	return nil
}

// RestoreState decodes a payload written by SaveState into the network.
// The receiver must be structurally identical to the network that was
// saved (same Config, scheme, VA policy and fault-layer presence) —
// the container's config hash enforces this on the Restore path.
func (n *Network) RestoreState(r *checkpoint.Reader) error {
	var trafficState, schemeState checkpoint.Stateful
	if n.Traffic != nil {
		ts, ok := n.Traffic.(checkpoint.Stateful)
		if !ok {
			return fmt.Errorf("%w: traffic source %T", checkpoint.ErrUnsupported, n.Traffic)
		}
		trafficState = ts
	}
	if n.Scheme != nil {
		ss, ok := n.Scheme.(checkpoint.Stateful)
		if !ok {
			return fmt.Errorf("%w: scheme %s", checkpoint.ErrUnsupported, n.Scheme.Name())
		}
		schemeState = ss
	}

	r.Section(secNetwork)
	n.Cycle = r.I64()
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	if err := n.Rng.SetState(st); err != nil {
		return err
	}
	n.InFlight = r.Int()
	n.Frozen = r.Bool()
	n.lastProgress = r.I64()
	n.lastConsume = r.I64()
	n.nextPktID = r.U64()
	n.vaRound = r.Int()
	// vaRoundMod is the vaRound rotation pre-reduced into [0, vaTotal);
	// derived, so recompute rather than decode (format v1 predates it).
	n.vaRoundMod = n.vaRound % n.vaTotal
	if n.vaRoundMod < 0 {
		n.vaRoundMod += n.vaTotal
	}

	for _, rt := range n.Routers {
		// Derived state is recomputed, never decoded: zero it before the
		// VC fields land, then let sync rebuild occupancy and bitsets.
		rt.occupied = 0
		for i := range rt.vaSet {
			rt.vaSet[i] = 0
		}
		for d := 0; d < NumPorts; d++ {
			in := rt.In[d]
			if in == nil {
				continue
			}
			// Format-v1 blobs stored the raw round-robin counter (old
			// code reduced it at scan time); the hot path now keeps it
			// normalized, so reduce on restore. The reduced value is what
			// the old scan computed, so decisions are unchanged.
			in.saPtr = normPtr(r.Int(), len(in.VCs))
			for i := range in.saSet {
				in.saSet[i] = 0
			}
			for _, vc := range in.VCs {
				vc.State = VCState(r.Int())
				if r.Err() == nil && vc.State != VCIdle && vc.State != VCActive {
					return fmt.Errorf("%w: VC state %d", checkpoint.ErrCorrupt, vc.State)
				}
				pkt, err := RestorePacket(r)
				if err != nil {
					return err
				}
				vc.Pkt = pkt
				vc.OutPort = r.Int()
				vc.OutVC = r.Int()
				vc.ActiveSince = r.I64()
				vc.LastMove = r.I64()
				vc.FFMode = r.Bool()
				nf := r.SliceLen(vc.Depth)
				// Head position is unobservable (the buffer is a modular
				// FIFO); restore compacted at head 0.
				vc.head = 0
				vc.n = nf
				for i := range vc.buf {
					vc.buf[i] = Flit{}
				}
				for i := 0; i < nf; i++ {
					f, err := restoreFlit(r)
					if err != nil {
						return err
					}
					vc.buf[i] = f
				}
				vc.occ = false
				vc.sync()
			}
		}
		for d := 0; d < NumPorts; d++ {
			out := rt.Out[d]
			if out == nil {
				continue
			}
			out.saPtr = normPtr(r.Int(), NumPorts)
			out.FFReserved = false // re-marked from the ffMarked list below
			for i := range out.VCs {
				out.VCs[i].Busy = r.Bool()
				out.VCs[i].Credits = r.Int()
			}
			// Busy flags may have fallen without FreeVC: invalidate
			// any VA failure memo keyed on this port (sync above has
			// already dropped this router's own).
			out.freeGen++
		}
	}

	for _, nic := range n.NICs {
		nic.backlog = 0
		nic.ejOccupied = 0
		for c := range nic.Queues {
			nq := r.SliceLen(maxActive)
			// Rebuild at the start of the backing array; a grown array
			// becomes the new base.
			clear(nic.Queues[c])
			q := nic.qBase[c][:0]
			for i := 0; i < nq; i++ {
				p, err := RestorePacket(r)
				if err != nil {
					return err
				}
				q = append(q, p)
			}
			nic.Queues[c] = q
			nic.qBase[c] = q
			nic.backlog += len(q)
		}
		nic.injBlocked = false
		nic.classPtr = normPtr(r.Int(), len(nic.Queues))
		cur, err := RestorePacket(r)
		if err != nil {
			return err
		}
		nic.cur = cur
		nic.curFlit = r.Int()
		nic.curVC = r.Int()
		for i := range nic.LocalMirror {
			nic.LocalMirror[i].Busy = r.Bool()
			nic.LocalMirror[i].Credits = r.Int()
		}
		for _, ej := range nic.Ej {
			p, err := RestorePacket(r)
			if err != nil {
				return err
			}
			ej.Pkt = p
			ej.Flits = r.Int()
			ej.Reserved = r.Bool()
			ej.creditsUsed = r.Int()
			if ej.Pkt != nil {
				nic.ejOccupied++
			}
		}
	}

	// Staged link traffic. The receiver's lists are reset wholesale;
	// restored links get their pending payloads back in saved order.
	for _, l := range n.dataLinks {
		l.pending = linkPayload{}
		l.busy = false
	}
	for _, l := range n.creditLinks {
		l.pending = l.pending[:0]
	}
	n.activeData = n.activeData[:0]
	n.activeCredit = n.activeCredit[:0]
	nd := r.SliceLen(len(n.dataLinks))
	for i := 0; i < nd; i++ {
		idx := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if idx < 0 || idx >= len(n.dataLinks) {
			return fmt.Errorf("%w: data link index %d of %d", checkpoint.ErrCorrupt, idx, len(n.dataLinks))
		}
		l := n.dataLinks[idx]
		f, err := restoreFlit(r)
		if err != nil {
			return err
		}
		l.pending = linkPayload{flit: f, vc: r.Int()}
		l.busy = true
		n.activeData = append(n.activeData, l)
	}
	nc := r.SliceLen(len(n.creditLinks))
	for i := 0; i < nc; i++ {
		idx := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if idx < 0 || idx >= len(n.creditLinks) {
			return fmt.Errorf("%w: credit link index %d of %d", checkpoint.ErrCorrupt, idx, len(n.creditLinks))
		}
		l := n.creditLinks[idx]
		np := r.SliceLen(maxActive)
		for j := 0; j < np; j++ {
			l.pending = append(l.pending, Credit{VC: r.Int(), Count: r.Int(), Free: r.Bool()})
		}
		n.activeCredit = append(n.activeCredit, l)
	}
	n.ffMarked = n.ffMarked[:0]
	nm := r.SliceLen(maxActive)
	for i := 0; i < nm; i++ {
		id := r.Int()
		dir := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if id < 0 || id >= len(n.Routers) || dir < 0 || dir >= NumPorts || n.Routers[id].Out[dir] == nil {
			return fmt.Errorf("%w: FF-reserved port (%d, %d)", checkpoint.ErrCorrupt, id, dir)
		}
		o := n.Routers[id].Out[dir]
		o.FFReserved = true
		n.ffMarked = append(n.ffMarked, o)
	}

	if err := n.Collector.RestoreState(r); err != nil {
		return err
	}
	if err := n.Energy.RestoreState(r); err != nil {
		return err
	}
	if got := r.Bool(); r.Err() == nil && got != (trafficState != nil) {
		return fmt.Errorf("%w: traffic source presence", checkpoint.ErrConfigMismatch)
	}
	if trafficState != nil {
		if err := trafficState.RestoreState(r); err != nil {
			return err
		}
	}
	if got := r.Bool(); r.Err() == nil && got != (schemeState != nil) {
		return fmt.Errorf("%w: scheme presence", checkpoint.ErrConfigMismatch)
	}
	if schemeState != nil {
		if err := schemeState.RestoreState(r); err != nil {
			return err
		}
	}
	if got := r.Bool(); r.Err() == nil && got != (n.Faults != nil) {
		return fmt.Errorf("%w: fault injector presence", checkpoint.ErrConfigMismatch)
	}
	if n.Faults != nil {
		if err := n.Faults.RestoreState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
