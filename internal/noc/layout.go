package noc

import "unsafe"

// Struct-of-arrays memory layout (DESIGN.md §10).
//
// All mutable hot-path state — routers, ports, VCs, flit buffers,
// credit mirrors, bitset words, NICs, ejection VCs and links — lives in
// dense flat slabs owned by the Network and carved once at
// construction. The familiar *Router/*InputPort/*OutputPort/*VC values
// the scheme packages program against are views: pointers into the
// slabs, created once in New and never reallocated, so every existing
// accessor keeps working while traversals walk contiguous memory.
//
// Everything is laid out router-major (all of router 0's state, then
// router 1's, ...), so one router's slice of every slab is one
// contiguous run. Per-element padding keeps each element on whole
// cache lines:
//
//   - VC is exactly 128 B (two lines: hot pipeline words first).
//   - InputPort/OutputPort/DataLink/CreditLink are 128 B, Router and
//     NIC 192 B, EjVC 64 B — all multiples of the 64 B line, so no
//     line holds parts of two elements and the fields that share a line
//     are chosen per struct (slabs ≥1 KiB land on 64 B-aligned size
//     classes; only toy meshes can straddle one line, costing
//     performance, never correctness).
//
// Dense addressing: portID(r, d) = r*NumPorts + d and vcID(r, d, v) =
// portID(r, d)*nvcs + v. The per-router []*VC view table (Router.vcAt,
// a slice of the vcPtrs slab) is indexed by d*nvcs+v — the same bit
// index the router's vaSet uses — with nil entries where the mesh edge
// has no port. Flit arrival and SA index a port's own run of the VC
// slab (InputPort.vcs) instead, and SA finds the ports with candidates
// through Router.saWords, a view of the five adjacent saSet words.
// Credit links hold their pending credits in inline slots, so no slab
// backs them. Views never escape to the heap on the hot path: the
// pipeline passes slab pointers around but stores them only in other
// slab-resident structs (VC.in, reqs on the stack, active lists
// pre-sized in New).

// layout owns the slabs. It is embedded by value in Network; the take*
// helpers carve it during New and the cursors are dead weight after.
type layout struct {
	routers   []Router
	inPorts   []InputPort  // dense: nodes × NumPorts (unused entries idle)
	outPorts  []OutputPort // dense: nodes × NumPorts
	vcs       []VC         // existing input VCs, router-major
	vcPtrs    []*VC        // dense view table: nodes × NumPorts × nvcs
	flits     []Flit       // VC FIFO storage, router-major
	outVCs    []OutVC      // credit mirrors: out ports, then NIC local mirrors
	words     []uint64     // bitset storage: per-router vaSet + 5 saSets
	nics      []NIC
	ejs       []EjVC  // NIC ejection VCs, NIC-major
	ejPtrs    []*EjVC // view table for NIC.Ej
	dataLks   []DataLink
	creditLks []CreditLink

	vcOff, flitOff, outVCOff, wordOff, dataOff, creditOff int
}

// Line-multiple size pins for the slab element types. A padding field
// got the struct to the commented size; if a field is added the
// compiler errors here rather than silently moving fields across cache
// lines. (64-bit layouts; the build tag on this package's tests
// keeps 32-bit ports honest about being unsupported.)
const (
	_ = uint(unsafe.Sizeof(VC{}) - 128)
	_ = uint(128 - unsafe.Sizeof(VC{}))
	_ = uint(unsafe.Sizeof(InputPort{}) - 128)
	_ = uint(128 - unsafe.Sizeof(InputPort{}))
	_ = uint(unsafe.Sizeof(OutputPort{}) - 128)
	_ = uint(128 - unsafe.Sizeof(OutputPort{}))
	_ = uint(unsafe.Sizeof(Router{}) - 192)
	_ = uint(192 - unsafe.Sizeof(Router{}))
	_ = uint(unsafe.Sizeof(NIC{}) - 192)
	_ = uint(192 - unsafe.Sizeof(NIC{}))
	_ = uint(unsafe.Sizeof(EjVC{}) - 64)
	_ = uint(64 - unsafe.Sizeof(EjVC{}))
	_ = uint(unsafe.Sizeof(DataLink{}) - 128)
	_ = uint(128 - unsafe.Sizeof(DataLink{}))
	_ = uint(unsafe.Sizeof(CreditLink{}) - 128)
	_ = uint(128 - unsafe.Sizeof(CreditLink{}))
)

func roundUp(v, to int) int { return (v + to - 1) / to * to }

// allocLayout sizes every slab for cfg. Carving must consume exactly
// what was counted; New checks the cursors at the end.
func allocLayout(cfg *Config) layout {
	nodes := cfg.Nodes()
	nvcs := cfg.TotalVCs()
	depth := cfg.VCDepth
	ejN := cfg.Classes * cfg.EjectVCsPerClass

	numVCs, numFlits, numOutVC, numWords := 0, 0, 0, 0
	saW := (nvcs + 63) / 64
	vaW := (NumPorts*nvcs + 63) / 64
	for id := 0; id < nodes; id++ {
		ports := 1 // Local always exists
		for d := North; d <= West; d++ {
			if cfg.Neighbor(id, d) >= 0 {
				ports++
			}
		}
		numVCs += ports * nvcs
		numFlits += roundUp(ports*nvcs*depth, 4)
		// Out-port mirrors: ejN for Local, nvcs per cardinal; padded to
		// 4 mirrors (64 B) per port.
		numOutVC += roundUp(ejN, 4) + (ports-1)*roundUp(nvcs, 4)
		numWords += roundUp(vaW+NumPorts*saW, 8)
	}
	// NIC local mirrors ride in the outVCs slab after the router region.
	numOutVC += nodes * roundUp(nvcs, 4)
	cardLinks := 2 * (cfg.Rows*(cfg.Cols-1) + cfg.Cols*(cfg.Rows-1))
	numData := cardLinks + 2*nodes   // + per node: NIC inject, NIC eject
	numCredit := cardLinks + 2*nodes // + per node: inject credits, eject credits

	return layout{
		routers:   make([]Router, nodes),
		inPorts:   make([]InputPort, nodes*NumPorts),
		outPorts:  make([]OutputPort, nodes*NumPorts),
		vcs:       make([]VC, numVCs),
		vcPtrs:    make([]*VC, nodes*NumPorts*nvcs),
		flits:     make([]Flit, numFlits),
		outVCs:    make([]OutVC, numOutVC),
		words:     make([]uint64, numWords),
		nics:      make([]NIC, nodes),
		ejs:       make([]EjVC, nodes*ejN),
		ejPtrs:    make([]*EjVC, nodes*ejN),
		dataLks:   make([]DataLink, numData),
		creditLks: make([]CreditLink, numCredit),
	}
}

// takeVCs carves k VC structs.
func (l *layout) takeVCs(k int) []VC {
	s := l.vcs[l.vcOff : l.vcOff+k : l.vcOff+k]
	l.vcOff += k
	return s
}

// takeFlits carves a flit FIFO of capacity k.
func (l *layout) takeFlits(k int) []Flit {
	s := l.flits[l.flitOff : l.flitOff+k : l.flitOff+k]
	l.flitOff += k
	return s
}

// padFlits rounds the flit cursor to a cache-line boundary (4 flits);
// called at every router boundary.
func (l *layout) padFlits() { l.flitOff = roundUp(l.flitOff, 4) }

// takeOutVCs carves k credit mirrors, padded to a line boundary.
func (l *layout) takeOutVCs(k int) []OutVC {
	s := l.outVCs[l.outVCOff : l.outVCOff+k : l.outVCOff+k]
	l.outVCOff += roundUp(k, 4)
	return s
}

// takeBits carves a bitset of n bits.
func (l *layout) takeBits(n int) bitset {
	k := (n + 63) / 64
	s := l.words[l.wordOff : l.wordOff+k : l.wordOff+k]
	l.wordOff += k
	return bitset(s)
}

// padWords rounds the word cursor to a cache-line boundary (8 words);
// called at every router boundary.
func (l *layout) padWords() { l.wordOff = roundUp(l.wordOff, 8) }

// takeDataLink carves one data link delivering into the input port in,
// or into nic's ejection side when in is nil.
func (l *layout) takeDataLink(name string, in *InputPort, nic *NIC) *DataLink {
	d := &l.dataLks[l.dataOff]
	l.dataOff++
	*d = DataLink{Name: name, in: in, nic: nic, lid: -1}
	return d
}

// takeCreditLink carves one credit link applying credits to the output
// port out, or to nic's local mirror when out is nil. Its pending queue
// starts as a view of its own inline slots.
func (l *layout) takeCreditLink(out *OutputPort, nic *NIC) *CreditLink {
	c := &l.creditLks[l.creditOff]
	l.creditOff++
	*c = CreditLink{out: out, nic: nic}
	c.pending = c.slots[:0]
	return c
}

// check panics if carving over- or under-consumed any slab — a
// construction bug, caught at New time rather than as silent aliasing.
func (l *layout) check() {
	switch {
	case l.vcOff != len(l.vcs):
		panic("noc: layout VC slab miscount")
	case l.flitOff != len(l.flits):
		panic("noc: layout flit slab miscount")
	case l.outVCOff != len(l.outVCs):
		panic("noc: layout OutVC slab miscount")
	case l.wordOff != len(l.words):
		panic("noc: layout bitset slab miscount")
	case l.dataOff != len(l.dataLks):
		panic("noc: layout data-link slab miscount")
	case l.creditOff != len(l.creditLks):
		panic("noc: layout credit-link slab miscount")
	}
}

// portID returns the dense (router, direction) port index.
func portID(router, dir int) int { return router*NumPorts + dir }
