package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "R-7" rule numpy and most
// spreadsheets use). xs need not be sorted and is left unchanged.
// An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean, 0 for an empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailMinOps is the fewest samples a 90th percentile is reported from:
// ten of them lie beyond it.
const tailMinOps = 100

// tailP90 returns the 90th percentile, or false when fewer than ten
// samples lie beyond it: a tail percentile needs that many behind it to
// mean anything.
func tailP90(xs []float64) (float64, bool) {
	if len(xs) < tailMinOps {
		return 0, false
	}
	return quantile(xs, 0.9), true
}

// cpuTime returns the CPU time, user and system, that all of this
// process's threads have used. A kernel with paravirtual steal
// accounting does not charge the process for time the hypervisor gave
// the CPU to another guest, so on a shared host this, unlike wall
// time, does not grow while other tenants run.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opTime is the wall and process CPU time of one measured region.
type opTime struct{ wall, cpu time.Duration }

// stopwatch times a measured region; stop returns its opTime.
type stopwatch struct {
	wall0 time.Time
	cpu0  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() opTime { return opTime{time.Since(s.wall0), cpuTime() - s.cpu0} }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// splitmix is the benchmark's own input generator: every workload
// input derives from the --seed argument through it, so the simulator
// sees only generated values and the same seed gives the same inputs.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a float in [lo, hi).
func (r *splitmix) uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/(1<<53)
}

// pick returns an index in [0, n).
func (r *splitmix) pick(n int) int { return int(r.next() % uint64(n)) }
