// Package energy implements the activity-based link/buffer energy model
// used for Fig. 11 of the paper. Energy is counted in units of one
// 128-bit data-flit link traversal; narrower sideband events (16-bit
// seekers, 10-bit lookaheads) are scaled by their bit-width, exactly the
// accounting §3.6 of the paper argues from. "Peak" energy is the
// maximum per-cycle link energy averaged over a sliding window, which
// captures the at-saturation spikes (SPIN probe storms, deflection
// misroutes) the paper reports.
package energy

import "seec/internal/stats"

// PeakWindow is the sliding-window length (cycles) for peak link energy.
const PeakWindow = 100

// Meter accumulates activity counts for one simulation run.
type Meter struct {
	// FlitBits is the data link width; sideband events are scaled
	// relative to it.
	FlitBits int

	DataHops     int64 // data flits crossing router-to-router links (incl. FF, deflections, misroutes)
	ProbeHops    int64 // SPIN deadlock-detection probe link traversals (full-width path-capture probes)
	SidebandBits int64 // seeker + lookahead sideband activity, in bit-cycles
	BufferWrites int64
	BufferReads  int64

	cycleEnergy float64 // link energy accumulated in the current cycle
	window      *stats.WindowMax
}

// NewMeter returns a meter for links of the given width.
func NewMeter(flitBits int) *Meter {
	if flitBits <= 0 {
		flitBits = 128
	}
	return &Meter{FlitBits: flitBits, window: stats.NewWindowMax(PeakWindow)}
}

// AddDataHop records one data flit crossing one router-to-router link.
func (m *Meter) AddDataHop() {
	m.DataHops++
	m.cycleEnergy++
}

// SkipIdle accounts k cycles in which provably no energy event
// occurred: equivalent to k zero-energy Tick calls. Idle fast-forward
// uses it; cycleEnergy must be zero (it always is between Steps).
func (m *Meter) SkipIdle(k int64) { m.window.PushZeros(k) }

// AddProbeHop records one SPIN probe crossing one link. Probes carry
// the captured path and are charged as a full-width traversal.
func (m *Meter) AddProbeHop() {
	m.ProbeHops++
	m.cycleEnergy++
}

// AddSideband records bits of sideband (seeker/lookahead) activity.
func (m *Meter) AddSideband(bits int) {
	m.SidebandBits += int64(bits)
	m.cycleEnergy += float64(bits) / float64(m.FlitBits)
}

// Tick closes the current cycle's accounting. Call exactly once per
// simulated cycle.
func (m *Meter) Tick() {
	m.window.Push(m.cycleEnergy)
	m.cycleEnergy = 0
}

// AvgLinkEnergy returns the mean link energy per cycle (flit-traversal
// units) over the whole run.
func (m *Meter) AvgLinkEnergy() float64 { return m.window.AvgPerCycle() }

// PeakLinkEnergy returns the maximum windowed per-cycle link energy.
func (m *Meter) PeakLinkEnergy() float64 { return m.window.PeakPerCycle() }
