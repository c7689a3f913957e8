package noc

// Idle fast-forward: when the whole system is provably quiescent,
// Run and Drain jump Cycle straight to the next scheduled event instead
// of spinning no-op cycles. Skips are exact — a cycle is only skipped
// when executing it would change nothing but the cycle counter (and the
// zero-energy window samples, which Energy.SkipIdle replays in O(1)).

// IdleReporter is implemented by traffic sources that can promise
// Generate will return no packets and draw no RNG until external state
// changes (e.g. a paused or zero-rate synthetic source). Required for
// idle fast-forward while a traffic source is installed.
type IdleReporter interface {
	Idle() bool
}

// QuiescentReporter is implemented by schemes that can promise their
// PreRouter/PostRouter hooks are no-ops while the network holds no
// packets. Schemes with per-cycle background activity (SEEC's seeker
// circulation, SPIN counters) return false; schemes that do not
// implement the interface are conservatively treated as never
// quiescent, so idle fast-forward stays off for them.
type QuiescentReporter interface {
	Quiescent() bool
}

// SetFastForward toggles idle fast-forward in Run and Drain (default
// on). Skips are exact, so this is a debugging aid, not a semantics
// switch.
func (n *Network) SetFastForward(on bool) { n.noFastForward = !on }

// trySkip attempts an idle fast-forward: if nothing in the system can
// change state before the next scheduled event, jump Cycle to
// min(target, next event - 1) and account the skipped cycles. Returns
// false when any component might act, leaving the caller to Step
// normally — skips are exact or they do not happen.
func (n *Network) trySkip(target int64) bool {
	if n.noFastForward || n.InFlight != 0 || n.Frozen ||
		len(n.activeData) != 0 || len(n.activeCredit) != 0 || len(n.ffMarked) != 0 ||
		n.Metrics != nil {
		return false
	}
	if n.Traffic != nil {
		ir, ok := n.Traffic.(IdleReporter)
		if !ok || !ir.Idle() {
			return false
		}
	}
	if n.Scheme != nil {
		qr, ok := n.Scheme.(QuiescentReporter)
		if !ok || !qr.Quiescent() {
			return false
		}
	}
	next := target
	if fi := n.Faults; fi != nil {
		d := fi.NextDeadline(n.Cycle)
		if d < 0 {
			if fi.Outstanding() > 0 {
				// Tracked transactions with no scheduled wake-up should
				// not exist; refuse to skip rather than silently jump
				// past a recovery.
				return false
			}
		} else if d-1 < next {
			// Stop one cycle short so the Step at cycle d runs the
			// deadline (kills and timeouts fire on exact cycle match).
			next = d - 1
		}
	}
	if next <= n.Cycle {
		return false
	}
	k := next - n.Cycle
	n.Cycle = next
	// Idle cycles are not frozen, so Step would have advanced the VA
	// rotation every cycle; energy would have pushed a zero window
	// sample (nothing moved and quiescent schemes burn no sideband).
	// The watchdog ignores empty networks, and the tracer has nothing
	// to record. Everything else is untouched by an idle cycle by the
	// gate above.
	n.vaRound += int(k)
	n.vaRoundMod = int((int64(n.vaRoundMod) + k) % int64(n.vaTotal))
	n.Energy.SkipIdle(k)
	return true
}

// Drain runs until the network is fully drained (no packets in flight
// and no fault-layer transactions outstanding) or max cycles have
// elapsed, fast-forwarding idle gaps (e.g. retransmission-timeout
// waits). Returns whether the network drained.
func (n *Network) Drain(max int64) bool {
	target := n.Cycle + max
	for !n.Drained() && n.Cycle < target {
		if n.trySkip(target) {
			continue
		}
		n.Step()
	}
	return n.Drained()
}
