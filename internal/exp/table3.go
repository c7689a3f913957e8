package exp

import (
	"context"
	"fmt"

	"seec"
	"seec/internal/plan"
)

// Table3 empirically checks the SEEC-vs-mSEEC bounds of Table 3: seek
// time (1 to O(m*k^2) for SEEC's embedded ring vs 1 to O(m*k) for
// mSEEC's per-column corridors) and worst-case deadlock resolution
// time (O(m*k^4) vs O(m*k^3)), by saturating a k x k mesh under
// fully-adaptive routing with a single VC (so forward progress depends
// on the scheme), then measuring seek statistics and the time to drain
// the wedged network once injection stops.
func Table3(s Scale) *Table {
	t := &Table{
		ID:    "table3",
		Title: "SEEC vs mSEEC: measured seek time and saturated-drain time (single VC, adaptive routing)",
		Header: []string{"mesh", "scheme", "avg seek", "max seek",
			"seek bound", "drain cycles", "drain bound"},
	}
	sizes := s.MeshSizes
	if len(sizes) > 2 {
		sizes = sizes[:2]
	}
	schemes := []seec.Scheme{seec.SchemeSEEC, seec.SchemeMSEEC}
	// The measured triple is a deterministic function of the config, so
	// it memoizes through the planner as a derived measurement. All
	// fields round-trip JSON exactly; a cancelled drain returns an
	// error and is never cached. The drain builds and steps its own
	// simulation, so it attaches the scale's Instrument itself.
	type drainMeas struct {
		AvgSeek float64
		MaxSeek int64
		Drain   int64
	}
	rows := cells(s, len(sizes)*len(schemes), func(ctx context.Context, i int) ([]any, error) {
		k, sc := sizes[i/len(schemes)], schemes[i%len(schemes)]
		cfg := synthCfg(sc, k, 1, "uniform_random", s.SimCycles)
		cfg.InjectionRate = 0.5 // drive deep into saturation: deadlocks form
		cfg.Seed = cfg.SweepSeed()
		m, err := plan.Memoize(ctx, s.planner(), plan.MeasKey("table3-drain/pause3000-deadline5e6", cfg),
			func(ctx context.Context) (drainMeas, error) {
				sim, err := seec.NewSim(cfg)
				if err != nil {
					return drainMeas{}, err
				}
				done := s.instrument(sim)
				sim.Run(cfg.Warmup + 3000)
				sim.Synthetic.Pause()
				start := sim.Cycle()
				deadline := start + 5_000_000
				for !sim.Drained() && sim.Cycle() < deadline {
					if sim.Cycle()&1023 == 0 && ctx.Err() != nil {
						return drainMeas{}, ctx.Err()
					}
					sim.Step()
				}
				done()
				m := drainMeas{Drain: sim.Cycle() - start}
				if sim.SEEC != nil {
					m.AvgSeek = sim.SEEC.Stats.AvgSeek()
					m.MaxSeek = sim.SEEC.Stats.SeekMax
				} else {
					m.AvgSeek = sim.MSEEC.Stats.AvgSeek()
					m.MaxSeek = sim.MSEEC.Stats.SeekMax
				}
				return m, nil
			})
		if err != nil {
			return []any{fmt.Sprintf("%dx%d", k, k), string(sc), "err", err.Error(), "", "", ""}, err
		}
		var seekBound, drainBound string
		if sc == seec.SchemeSEEC {
			seekBound = fmt.Sprintf("O(m*k^2)=%d", k*k)
			drainBound = fmt.Sprintf("O(m*k^4)=%d", k*k*k*k)
		} else {
			seekBound = fmt.Sprintf("O(m*k)=%d", k)
			drainBound = fmt.Sprintf("O(m*k^3)=%d", k*k*k)
		}
		return []any{fmt.Sprintf("%dx%d", k, k), string(sc),
			fmt.Sprintf("%.1f", m.AvgSeek), m.MaxSeek, seekBound, m.Drain, drainBound}, nil
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"m=1 message class here; bounds are asymptotic shapes, not equalities",
		"mSEEC's k parallel seekers give shorter seeks and faster drains; both gaps must widen with k")
	return t
}
