package exp

import (
	"context"
	"errors"
	"fmt"

	"seec"
	"seec/internal/checkpoint"
)

// synthCfg builds a synthetic-run config for the standard Fig. 8 setup
// (4 VCs per input port, scheme-default routing).
func synthCfg(scheme seec.Scheme, k, vcs int, pattern string, cycles int64) seec.Config {
	cfg := seec.DefaultConfig()
	cfg.Rows, cfg.Cols = k, k
	cfg.Scheme = scheme
	cfg.VCsPerVNet = vcs
	cfg.Pattern = pattern
	cfg.SimCycles = cycles
	return cfg
}

// fig8Schemes is the Fig. 8 lineup.
func fig8Schemes() []seec.Scheme {
	return []seec.Scheme{seec.SchemeXY, seec.SchemeWestFirst, seec.SchemeTFC,
		seec.SchemeEscape, seec.SchemeMinBD, seec.SchemeSPIN, seec.SchemeSWAP,
		seec.SchemeDRAIN, seec.SchemeSEEC, seec.SchemeMSEEC}
}

// fig8Patterns is the synthetic-pattern lineup from Fig. 8 / the AE
// appendix (bit rotation, shuffle, transpose, plus uniform random).
func fig8Patterns() []string {
	return []string{"uniform_random", "bit_rotation", "shuffle", "transpose"}
}

// Fig8 regenerates the latency-versus-injection-rate curves: one table
// per (mesh size, traffic pattern), columns are schemes, cells are
// average packet latency in cycles ("sat" once past saturation or
// stalled). Run with 4 VCs per input port as in the paper. Every cell
// — across tables, rows and scheme columns — is an independent
// simulation, so the whole figure fans out as one flat job list.
func Fig8(s Scale) []*Table {
	schemes := fig8Schemes()
	pats := fig8Patterns()
	if s.WarmupShare && s.planner() == nil {
		// Legacy warmup-fork path. With a planner attached the same
		// sharing happens through the planner's family grouping below:
		// row-major submission order puts each curve's members in rate
		// order, so the family base (mid member) and fork order
		// reproduce this path's convention byte-for-byte.
		return fig8Tables(s, schemes, pats, fig8SharedCells(s, schemes, pats))
	}
	var cfgs []seec.Config
	for _, k := range s.MeshSizes {
		for _, pat := range pats {
			for _, rate := range s.Rates {
				for _, sc := range schemes {
					cfg := synthCfg(sc, k, 4, pat, s.SimCycles)
					cfg.InjectionRate = rate
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	vals := simCells(s, cfgs, func(_ int, res seec.Result, err error) string {
		return latencyCell(res, err)
	})
	return fig8Tables(s, schemes, pats, vals)
}

// fig8SharedCells computes Fig. 8's cells on the warmup-fork path: one
// job per (mesh, pattern, scheme) curve, each warming a single
// simulation and forking every rate point from the in-memory checkpoint
// (Scale.WarmupShare). The returned slice uses the same cell order as
// the independent path: k-major, then pattern, then rate, then scheme.
func fig8SharedCells(s Scale, schemes []seec.Scheme, pats []string) []string {
	type group struct {
		k   int
		pat string
		sc  seec.Scheme
	}
	var groups []group
	for _, k := range s.MeshSizes {
		for _, pat := range pats {
			for _, sc := range schemes {
				groups = append(groups, group{k, pat, sc})
			}
		}
	}
	forks := make([]seec.Fork, len(s.Rates))
	for j, rate := range s.Rates {
		forks[j] = seec.Fork{Rate: rate}
	}
	curves := cells(s, len(groups), func(ctx context.Context, i int) ([]string, error) {
		g := groups[i]
		cfg := synthCfg(g.sc, g.k, 4, g.pat, s.SimCycles)
		// Warm at the middle of the sweep so the shared state is a fair
		// compromise for both ends of the curve.
		cfg.InjectionRate = s.Rates[len(s.Rates)/2]
		cfg.Seed = cfg.SweepSeed("warmup-share")
		// Forks run serially: the cross-curve fan-out above already fills
		// the worker pool.
		results, err := seec.RunSyntheticForkedCtx(ctx, cfg, forks, 1)
		if errors.Is(err, checkpoint.ErrUnsupported) {
			// Deflection schemes cannot checkpoint; fall back to the
			// independent per-rate runs for this curve.
			return fig8IndependentCurve(ctx, s, g.sc, g.k, g.pat)
		}
		if err != nil {
			row := make([]string, len(s.Rates))
			for j := range row {
				row[j] = "err"
			}
			return row, err
		}
		row := make([]string, len(results))
		for j, res := range results {
			row[j] = latencyCell(res, nil)
		}
		return row, nil
	})
	// Reorder curve-major cells into the row-major cell order the table
	// assembly expects.
	vals := make([]string, len(groups)*len(s.Rates))
	for gi, curve := range curves {
		k := gi / (len(pats) * len(schemes))
		rem := gi % (len(pats) * len(schemes))
		pi, si := rem/len(schemes), rem%len(schemes)
		for ri := range s.Rates {
			idx := ((k*len(pats)+pi)*len(s.Rates)+ri)*len(schemes) + si
			if ri < len(curve) {
				vals[idx] = curve[ri]
			}
		}
	}
	return vals
}

// fig8IndependentCurve runs one curve's rate points as independent
// simulations with the standard per-point seeding — the WarmupShare
// fallback for schemes that cannot checkpoint.
func fig8IndependentCurve(ctx context.Context, s Scale, sc seec.Scheme, k int, pat string) ([]string, error) {
	row := make([]string, len(s.Rates))
	var firstErr error
	for j, rate := range s.Rates {
		cfg := synthCfg(sc, k, 4, pat, s.SimCycles)
		cfg.InjectionRate = rate
		cfg.Seed = cfg.SweepSeed()
		res, err := s.runSynthetic(ctx, cfg)
		row[j] = latencyCell(res, err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return row, firstErr
}

// fig8Tables folds the flat cell slice (k-major, then pattern, then
// rate, then scheme) into one table per (mesh size, pattern).
func fig8Tables(s Scale, schemes []seec.Scheme, pats []string, vals []string) []*Table {
	var out []*Table
	i := 0
	for _, k := range s.MeshSizes {
		for _, pat := range pats {
			t := &Table{
				ID:    "fig8",
				Title: fmt.Sprintf("Avg packet latency vs injection rate — %dx%d mesh, %s, 4 VCs", k, k, pat),
			}
			t.Header = append(t.Header, "rate")
			for _, sc := range schemes {
				t.Header = append(t.Header, string(sc))
			}
			for _, rate := range s.Rates {
				row := []any{fmt.Sprintf("%.2f", rate)}
				for range schemes {
					row = append(row, vals[i])
					i++
				}
				t.AddRow(row...)
			}
			out = append(out, t)
		}
	}
	return out
}

// latencyCell renders a latency measurement, marking saturation.
func latencyCell(res seec.Result, err error) string {
	if err != nil {
		return "err"
	}
	if res.Stalled {
		return "stall"
	}
	// Past saturation the latency estimate is dominated by queueing at
	// the NIC and grows without bound with simulated time; the paper's
	// curves simply shoot up. Flag clearly saturated points.
	if res.AvgLatency > 2000 {
		return "sat"
	}
	return fmt.Sprintf("%.1f", res.AvgLatency)
}

// Fig9 regenerates the saturation-throughput bars for bit rotation and
// transpose on 4x4 and 8x8 meshes with 1, 2 and 4 VCs per input port.
func Fig9(s Scale) *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "Saturation throughput (packets/node/cycle), latency <= 3x zero-load",
		Header: []string{"pattern", "mesh", "VCs"},
	}
	schemes := []seec.Scheme{seec.SchemeXY, seec.SchemeWestFirst, seec.SchemeSPIN,
		seec.SchemeSWAP, seec.SchemeDRAIN, seec.SchemeSEEC, seec.SchemeMSEEC}
	for _, sc := range schemes {
		t.Header = append(t.Header, string(sc))
	}
	sizes := s.MeshSizes
	if len(sizes) > 2 {
		sizes = sizes[:2] // Fig. 9 uses 4x4 and 8x8
	}
	type coord struct {
		pat string
		k   int
		vcs int
		sc  seec.Scheme
	}
	var coords []coord
	for _, pat := range []string{"bit_rotation", "transpose"} {
		for _, k := range sizes {
			for _, vcs := range []int{1, 2, 4} {
				for _, sc := range schemes {
					coords = append(coords, coord{pat, k, vcs, sc})
				}
			}
		}
	}
	// Parallelism lives at the cell level; each cell's saturation
	// search runs its probes serially (workers=1) so the pool is not
	// oversubscribed. The search result is identical either way. With a
	// planner attached, every probe point resolves through its cache:
	// the search's probe sequence is deterministic, so a repeated
	// search replays entirely from cached points.
	vals := cells(s, len(coords), func(ctx context.Context, i int) (string, error) {
		c := coords[i]
		if c.sc == seec.SchemeEscape && c.vcs < 2 {
			return "n/a", nil
		}
		cfg := synthCfg(c.sc, c.k, c.vcs, c.pat, s.SatCycles)
		var sat float64
		var err error
		if p := s.planner(); p != nil {
			sat, _, err = seec.SaturationThroughputWith(ctx, cfg, 1,
				func(ctx context.Context, c seec.Config) (seec.Result, error) {
					return p.RunOne(ctx, c, s.runSyntheticDirect)
				})
		} else {
			sat, _, err = seec.SaturationThroughputCtx(ctx, cfg, 1)
		}
		if err != nil {
			return "err", err
		}
		return fmt.Sprintf("%.3f", sat), nil
	})
	i := 0
	for _, pat := range []string{"bit_rotation", "transpose"} {
		for _, k := range sizes {
			for _, vcs := range []int{1, 2, 4} {
				row := []any{pat, fmt.Sprintf("%dx%d", k, k), vcs}
				for range schemes {
					row = append(row, vals[i])
					i++
				}
				t.AddRow(row...)
			}
		}
	}
	t.Notes = append(t.Notes, "SPIN/SWAP/SEEC/mSEEC use fully-adaptive random routing; XY/WF are the turn-model baselines")
	return t
}
