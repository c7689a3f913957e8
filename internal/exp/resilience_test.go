package exp

import (
	"context"
	"errors"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"seec"
	"seec/internal/plan"
)

// resScale keeps the resilience sweep (25 cells) test-sized.
func resScale(workers int) Scale {
	return Scale{
		SimCycles: 1200,
		Workers:   workers,
	}
}

// TestResilienceTable: the fault-rate sweep must render a full table
// whose fault-free row delivers essentially everything, and whose
// faulted cells stay parseable delivered fractions (the retransmission
// layer recovering, not "err" markers).
func TestResilienceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 25 faulted 8x8 simulations")
	}
	tab := Resilience(resScale(4))
	if len(tab.Rows) != len(resilienceRates) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(resilienceRates))
	}
	for ri, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", ri, len(row), len(tab.Header))
		}
		// Columns: "fault rate", then (dlv, lat, retx) per scheme.
		for c := 1; c < len(row); c += 3 {
			dlv, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("row %d col %d: delivered fraction %q is not a number", ri, c, row[c])
			}
			// Slightly above 1 is legitimate: packets created during
			// warmup but received after it count only as receptions.
			if dlv < 0.5 || dlv > 1.1 {
				t.Fatalf("row %d col %d: delivered fraction %v out of range", ri, c, dlv)
			}
			if ri == 0 && dlv < 0.95 {
				t.Fatalf("fault-free row delivered only %v", dlv)
			}
			if ri == 0 && row[c+2] != "0" {
				t.Fatalf("fault-free row shows %s retransmits", row[c+2])
			}
		}
	}
	// The heaviest fault rate must show retransmission activity for
	// every scheme — the protocol engaging is the point of the table.
	last := tab.Rows[len(tab.Rows)-1]
	for c := 3; c < len(last); c += 3 {
		if last[c] == "0" {
			t.Fatalf("no retransmits at the top fault rate in column %s", tab.Header[c])
		}
	}
}

// TestResilienceParallelDeterminism: faulted cells derive their
// injector stream from the cell's own sweep seed, so the table is
// byte-identical at any worker count like every other figure.
func TestResilienceParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the resilience sweep twice")
	}
	serial := renderAll([]*Table{Resilience(resScale(1))})
	if got := renderAll([]*Table{Resilience(resScale(4))}); got != serial {
		t.Fatalf("resilience output differs at workers=4:\n%s", diffLine(serial, got))
	}
}

// TestCellsSurvivesPanickingCell: one panicking cell must not abort the
// figure — its cell renders as the zero value and the rest fill in.
func TestCellsSurvivesPanickingCell(t *testing.T) {
	s := Scale{Workers: 2}
	vals := cells(s, 6, func(_ context.Context, i int) (string, error) {
		if i == 2 {
			panic("cell exploded")
		}
		return "ok", nil
	})
	for i, v := range vals {
		want := "ok"
		if i == 2 {
			want = ""
		}
		if v != want {
			t.Fatalf("vals[%d] = %q, want %q", i, v, want)
		}
	}
}

// TestCellsJobTimeout: a cell exceeding its planner's JobTimeout is
// cancelled through its context and renders its own error cell.
func TestCellsJobTimeout(t *testing.T) {
	s, _ := withPlanner(t, Scale{Workers: 2}, plan.Options{JobTimeout: 10 * time.Millisecond})
	vals := cells(s, 3, func(ctx context.Context, i int) (string, error) {
		if i == 1 {
			<-ctx.Done()
			return "timed out", ctx.Err()
		}
		return "ok", nil
	})
	if vals[0] != "ok" || vals[1] != "timed out" || vals[2] != "ok" {
		t.Fatalf("vals = %v", vals)
	}
}

// TestCellsMaxFailures: a positive MaxFailures on the planner trips the
// breaker; cancelled cells keep their zero value.
func TestCellsMaxFailures(t *testing.T) {
	s, _ := withPlanner(t, Scale{Workers: 1}, plan.Options{MaxFailures: 2})
	ran := 0
	vals := cells(s, 50, func(_ context.Context, i int) (string, error) {
		ran++
		return "cell", errors.New("always fails")
	})
	if ran >= 50 {
		t.Fatalf("breaker never tripped: %d cells ran", ran)
	}
	if vals[0] != "cell" {
		t.Fatalf("failed cell lost its rendered value: %q", vals[0])
	}
	// The tail was cancelled before running.
	if got := strings.Count(strings.Join(vals, "|"), "cell"); got != ran {
		t.Fatalf("%d rendered cells for %d runs", got, ran)
	}
}

// TestCellsInstrumentedKeepBudget: an instrumented scale runs its cells
// on its sharing planner's Fresh planner, which keeps that planner's
// JobTimeout, so a cell past it still times out.
func TestCellsInstrumentedKeepBudget(t *testing.T) {
	s, _ := withPlanner(t, Scale{Workers: 2}, plan.Options{WarmupShare: true, JobTimeout: 10 * time.Millisecond})
	s.Instrument = func(*seec.Sim) func() { return nil }
	vals := cells(s, 2, func(ctx context.Context, i int) (string, error) {
		if i == 0 {
			return "ok", nil
		}
		select {
		case <-ctx.Done():
			return "timed out", ctx.Err()
		case <-time.After(10 * time.Second):
			return "unbounded", errors.New("no deadline reached the cell")
		}
	})
	if vals[0] != "ok" || vals[1] != "timed out" {
		t.Fatalf("vals = %v, want [ok timed out]", vals)
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stderr = saved
	w.Close()
	return string(<-done)
}

// TestFailureReportsShareOneForm: a failed simulation cell (simCells,
// through the planner's Run) and a failed generic cell (cells, through
// its Map) report in one form — cell index, attempts, elapsed time and
// unwrapped cause, then the aggregate count.
func TestFailureReportsShareOneForm(t *testing.T) {
	form := regexp.MustCompile(`^exp: cell 1 failed after 1 attempt\(s\) in [0-9.]+[µnm]?s: (.+)\nexp: 1/2 cells failed\n$`)
	bad := seec.DefaultConfig()
	bad.Rows, bad.Cols = 4, 4
	bad.Scheme = "no-such-scheme"
	ok := bad
	ok.Scheme = seec.SchemeXY
	ok.SimCycles = 200
	sim := captureStderr(t, func() {
		simCells(Scale{Workers: 2}, []seec.Config{ok, bad}, func(_ int, _ seec.Result, err error) string {
			return latencyCell(seec.Result{}, err)
		})
	})
	gen := captureStderr(t, func() {
		cells(Scale{Workers: 2}, 2, func(_ context.Context, i int) (string, error) {
			if i == 1 {
				return "err", errors.New("cell broke")
			}
			return "ok", nil
		})
	})
	for _, c := range []struct{ path, out, cause string }{
		{"simCells", sim, "no-such-scheme"},
		{"cells", gen, "cell broke"},
	} {
		m := form.FindStringSubmatch(c.out)
		if m == nil {
			t.Errorf("%s failure report %q does not match %s", c.path, c.out, form)
		} else if !strings.Contains(m[1], c.cause) {
			t.Errorf("%s failure cause %q does not name %q", c.path, m[1], c.cause)
		}
	}
}
