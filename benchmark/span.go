package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one interval at a layer boundary, recorded from this
// package around a call into the layer's public API. Spans of one
// staged operation share Op; Parent is the span that caused this one
// (-1 for the operation's root). Counts are taken at the same boundary
// from the call's returned Stats/Report value.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Mallocs uint64             `json:"mallocs,omitempty"`
	Counts  map[string]float64 `json:"counts,omitempty"`
	// AllocOp marks spans of an operation that read runtime.MemStats at
	// every boundary; their Mallocs are exact and their times are
	// discarded, since ReadMemStats stops the world.
	AllocOp bool `json:"alloc_op,omitempty"`
}

func (s *span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// rootMS is the duration of the operation s belongs to.
func (s *span) rootMS(r *recorder) float64 {
	for s.Parent >= 0 {
		s = r.spans[s.Parent]
	}
	return s.ms()
}

// recorder keeps the traced pass's spans in memory; writeFile dumps
// them when the benchmark ends.
type recorder struct {
	// speed is the host-speed factor of the traced pass (calib.go);
	// times and selfTimes report at reference speed, the span file
	// keeps raw nanoseconds.
	speed  float64
	t0     time.Time
	spans  []*span
	stack  []int
	op     int
	allocs bool // current operation measures Mallocs instead of time
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), speed: 1} }

// beginOp opens the root span of one staged operation. With allocs
// set, every span of the operation brackets its call with
// runtime.ReadMemStats.
func (r *recorder) beginOp(name string, allocs bool) int {
	r.op++
	r.allocs = allocs
	return r.begin(name)
}

func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, &span{ID: id, Parent: parent, Op: r.op, Name: name, AllocOp: r.allocs})
	r.stack = append(r.stack, id)
	if r.allocs {
		r.spans[id].Mallocs = mallocs()
	}
	r.spans[id].StartNS = int64(time.Since(r.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) *span {
	now := int64(time.Since(r.t0))
	s := r.spans[id]
	s.EndNS = now
	if r.allocs {
		s.Mallocs = mallocs() - s.Mallocs
	}
	r.stack = r.stack[:len(r.stack)-1]
	return s
}

// do records f as a child span of the innermost open span.
func (r *recorder) do(name string, f func()) *span {
	id := r.begin(name)
	f()
	return r.end(id)
}

func (s *span) count(key string, v float64) {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// times returns the durations (ms) of every timing-operation span with
// the given name; allocsOf the Mallocs of every alloc-operation one.
func (r *recorder) times(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := r.spans[i]; s.Name == name && !s.AllocOp {
			out = append(out, s.ms()/r.speed)
		}
	}
	return out
}

func (r *recorder) allocsOf(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := r.spans[i]; s.Name == name && s.AllocOp {
			out = append(out, float64(s.Mallocs))
		}
	}
	return out
}

// selfRow is one layer's self time: its spans' durations minus the
// part their direct children cover, per staged operation.
type selfRow struct {
	Name   string
	Spans  int
	SelfMS float64 // mean self time per span
}

func (r *recorder) selfTimes() []selfRow {
	child := make([]int64, len(r.spans))
	for i := range r.spans {
		if s := r.spans[i]; s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	type acc struct {
		n    int
		self int64
	}
	by := map[string]*acc{}
	for i := range r.spans {
		s := r.spans[i]
		if s.AllocOp {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.self += s.EndNS - s.StartNS - child[i]
	}
	rows := make([]selfRow, 0, len(by))
	for name, a := range by {
		rows = append(rows, selfRow{Name: name, Spans: a.n, SelfMS: float64(a.self) / 1e6 / float64(a.n) / r.speed})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// coverage is Σ direct-child span time ÷ Σ root span time over the
// timing operations whose root has the given name.
func (r *recorder) coverage(root string) float64 {
	var rootNS, childNS int64
	for i := range r.spans {
		s := r.spans[i]
		if s.AllocOp {
			continue
		}
		if s.Parent < 0 && s.Name == root {
			rootNS += s.EndNS - s.StartNS
		} else if s.Parent >= 0 && r.spans[s.Parent].Parent < 0 && r.spans[s.Parent].Name == root {
			childNS += s.EndNS - s.StartNS
		}
	}
	if rootNS == 0 {
		return 0
	}
	return float64(childNS) / float64(rootNS)
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
