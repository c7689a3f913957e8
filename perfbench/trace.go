package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Times are
// nanoseconds since the tracer started. Calls too frequent to record
// one by one (a traffic source's per-node Generate, say) are summed
// into Agg on the span that encloses them instead; they count as child
// time when the enclosing span's self time is computed.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"` // index of the causing span, -1 for none
	Op     int              `json:"op"`     // operation id, -1 for set-up
	Agg    map[string]int64 `json:"agg_ns,omitempty"`
}

// tracer keeps spans in memory for the whole run; write dumps them when
// the run ends. A nil *tracer records nothing, so untraced code paths
// call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock (monotonic, ns since start).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a finished span and returns its index (-1 when t is nil).
func (t *tracer) add(name string, start, end int64, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// open starts a span; close it with end.
func (t *tracer) open(name string, parent, op int) int {
	return t.add(name, t.now(), -1, parent, op)
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// aggregate adds ns of summed high-frequency child time, attributed to
// layer, to span id.
func (t *tracer) aggregate(id int, layer string, ns int64) {
	if t == nil || id < 0 || ns == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Agg == nil {
		s.Agg = make(map[string]int64)
	}
	s.Agg[layer] += ns
}

// selfByOp splits each operation's wall time among that operation's
// spans and returns, per span name, the time summed over operations.
// At every instant the time goes to the innermost open spans — open
// spans none of whose children are open — shared equally when parallel
// workers have several open at once; a span's aggregated high-frequency
// child time moves from the span to the aggregate's layer name. Within
// an operation the shares add up to the root span's duration, so they
// account for the operation time with nothing hidden: time no layer
// claims stays with the root span.
func (t *tracer) selfByOp() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type edge struct {
		at   int64
		span int
		open bool
	}
	byOp := map[int][]edge{}
	for i, s := range t.spans {
		if s.Op < 0 || s.End < s.Start {
			continue
		}
		byOp[s.Op] = append(byOp[s.Op], edge{s.Start, i, true}, edge{s.End, i, false})
	}
	out := map[string]int64{}
	for _, edges := range byOp {
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].at != edges[b].at {
				return edges[a].at < edges[b].at
			}
			return !edges[a].open && edges[b].open // close before open at a tie
		})
		share := map[int]float64{}
		openKids := map[int]int{}
		var active []int
		for k, e := range edges {
			if k > 0 && len(active) > 0 {
				var inner []int
				for _, a := range active {
					if openKids[a] == 0 {
						inner = append(inner, a)
					}
				}
				dt := float64(e.at - edges[k-1].at)
				for _, a := range inner {
					share[a] += dt / float64(len(inner))
				}
			}
			p := t.spans[e.span].Parent
			if e.open {
				active = append(active, e.span)
				openKids[p]++
			} else {
				for x, a := range active {
					if a == e.span {
						active = append(active[:x], active[x+1:]...)
						break
					}
				}
				openKids[p]--
			}
		}
		for i, v := range share {
			s := t.spans[i]
			for layer, ns := range s.Agg {
				out[layer] += ns
				v -= float64(ns)
			}
			out[s.Name] += int64(v)
		}
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 12 [running]:"). Layer boundaries that only a worker's
// own sequence of calls can pair up — the runner's job start with the
// simulation it builds, a store write's rename with its directory
// sync — are matched per goroutine. Costs about a microsecond, so it is
// used only at per-job boundaries, never per cycle.
func gid() uint64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	n, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return n
}
