package seec

import (
	"fmt"
	"io"
	"os"

	"seec/internal/noc"
	"seec/internal/trace"
)

// InstrumentOptions describes the observability outputs of one run:
// flit-level event traces (Chrome trace_event and/or JSONL), windowed
// per-router/per-link metrics CSVs, and the stall watchdog. Both CLIs
// (seecsim, figures) lower their -trace/-metrics-out/-watchdog flags to
// this struct and install it via Config.Instrument. Every produced file
// gets a sibling <file>.manifest.json recording config, seed, git
// revision and wall time.
type InstrumentOptions struct {
	TracePath  string // Chrome trace_event JSON (chrome://tracing / Perfetto)
	EventsPath string // newline-delimited JSON event log
	TraceBuf   int    // ring capacity in events (0 selects trace.DefaultCapacity)

	MetricsPath   string // CSV path prefix: writes <prefix>_routers.csv and <prefix>_links.csv
	MetricsWindow int64  // cycles per metrics window (0 selects 1000)

	WatchdogWindow int64     // cycles without an ejection before a snapshot dump (0 = off)
	WatchdogOut    io.Writer // snapshot destination (nil selects os.Stderr)

	Tool string   // manifest: producing command, e.g. "seecsim"
	Args []string // manifest: full command line
	Note string   // manifest: free-form context, e.g. a figure id

	// TelemetryAddr and TelemetryEvents record the live telemetry
	// endpoints (the bound /status address and the JSONL event log) in
	// the manifest when sweep telemetry ran alongside this run. They are
	// provenance only and do not count toward Enabled().
	TelemetryAddr   string
	TelemetryEvents string

	// OnError receives output-writing failures at run end (nil selects
	// a line on os.Stderr). The simulation result is unaffected.
	OnError func(error)
}

// Enabled reports whether any instrumentation output was requested.
func (o InstrumentOptions) Enabled() bool {
	return o.TracePath != "" || o.EventsPath != "" || o.MetricsPath != "" || o.WatchdogWindow > 0
}

// Hook lowers the options to a Config.Instrument callback. The hook
// attaches the recorder/metrics/watchdog to the simulation's network
// and returns the finisher that writes every requested file (plus its
// manifest) when the run ends. On deflection networks (CHIPPER/MinBD),
// which have no credit-flow routers to instrument, the hook reports an
// error through OnError and does nothing.
func (o InstrumentOptions) Hook() func(*Sim) func() {
	if !o.Enabled() {
		return nil
	}
	return func(s *Sim) func() {
		fail := o.OnError
		if fail == nil {
			fail = func(err error) { fmt.Fprintln(os.Stderr, "instrument:", err) }
		}
		if s.Net == nil {
			fail(fmt.Errorf("scheme %s runs on the deflection network, which has no instrumentation hooks", s.Cfg.Scheme))
			return nil
		}
		man := trace.NewManifest(o.Tool, o.Args)
		man.Config = s.Cfg
		man.Seed = s.Cfg.Seed
		man.Note = o.Note
		if fi := s.Faults; fi != nil {
			man.FaultSpec = fi.Spec().String()
			man.FaultSeed = fi.Seed()
		}
		if o.TelemetryAddr != "" || o.TelemetryEvents != "" {
			man.Telemetry = &trace.TelemetrySection{
				StatusAddr: o.TelemetryAddr,
				EventsPath: o.TelemetryEvents,
			}
		}

		var rec *trace.Recorder
		if o.TracePath != "" || o.EventsPath != "" {
			capacity := o.TraceBuf
			if capacity <= 0 {
				capacity = trace.DefaultCapacity
			}
			rec = trace.NewRecorder(capacity)
			s.Net.Tracer = rec
		}
		if o.MetricsPath != "" {
			s.Net.Metrics = trace.NewMetrics(s.Cfg.Rows, s.Cfg.Cols, o.MetricsWindow)
		}
		if o.WatchdogWindow > 0 {
			out := o.WatchdogOut
			if out == nil {
				out = os.Stderr
			}
			s.Net.Watchdog = &noc.Watchdog{Window: o.WatchdogWindow, Out: out}
		}

		net := s.Net
		return func() {
			// The run loop records the achieved latency CI on the Sim just
			// before finishing, so the manifest can carry the precision of
			// the numbers the outputs describe.
			man.StopCI = s.Cfg.StopCI
			if ci := s.ci; ci != nil {
				man.CIRelHalfWidth = ci.Rel()
				man.CIBatches = ci.Batches
			}
			if rec != nil {
				if o.TracePath != "" {
					if err := writeOutput(o.TracePath, man, func(w io.Writer) error {
						return trace.WriteChromeTrace(w, rec)
					}); err != nil {
						fail(err)
					}
				}
				if o.EventsPath != "" {
					if err := writeOutput(o.EventsPath, man, func(w io.Writer) error {
						return trace.WriteJSONL(w, rec)
					}); err != nil {
						fail(err)
					}
				}
			}
			if m := net.Metrics; m != nil {
				m.Flush()
				neighbor := func(r, dir int) int { return net.Cfg.Neighbor(r, dir) }
				if err := writeOutput(o.MetricsPath+"_routers.csv", man, m.WriteRouterCSV); err != nil {
					fail(err)
				}
				if err := writeOutput(o.MetricsPath+"_links.csv", man, func(w io.Writer) error {
					return m.WriteLinkCSV(w, neighbor, noc.DirName)
				}); err != nil {
					fail(err)
				}
			}
		}
	}
}

// writeOutput creates path, fills it via write, and drops the sibling
// manifest next to it.
func writeOutput(path string, man trace.Manifest, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return man.Write(path)
}

// StallReport returns the deadlock diagnosis for the simulation's
// current state: top blocked routers, oldest in-flight packet age, and
// representative wait-for chains. Empty for deflection networks.
func (s *Sim) StallReport() string {
	if s.Net == nil {
		return ""
	}
	return s.Net.StallSummary().String()
}
