package exp

import (
	"context"
	"fmt"

	"seec"
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
// simulation, so the whole figure fans out as one flat job list. Under
// a planner with WarmupShare, each (mesh, pattern, scheme) curve is one
// warmup family; the row-major order below submits each curve's
// members in rate order, which fixes its base (mid-rate member) and
// fork order.
func Fig8(s Scale) []*Table {
	schemes := fig8Schemes()
	pats := fig8Patterns()
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
	// oversubscribed. The search result is identical either way. Every
	// probe resolves through the scale's planner with the scale's hooks
	// and the cell's context: the search's probe sequence is
	// deterministic, so a repeated search replays entirely from cached
	// points.
	vals := cells(s, len(coords), func(ctx context.Context, i int) (string, error) {
		c := coords[i]
		if c.sc == seec.SchemeEscape && c.vcs < 2 {
			return "n/a", nil
		}
		cfg := synthCfg(c.sc, c.k, c.vcs, c.pat, s.SatCycles)
		sat, _, err := seec.SaturationThroughputWith(ctx, cfg, 1, s.runSynthetic)
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
