package placement

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Plan persistence: a plan is computed offline (possibly with a long
// solver budget) and applied later; the JSON form stores the decision
// variables — assignments and routes — plus provenance, and is
// rehydrated against the same TDG and topology.

// planJSON is the serialized form.
type planJSON struct {
	Version     int                       `json:"version"`
	SolverName  string                    `json:"solver"`
	SolveTimeNS int64                     `json:"solve_time_ns"`
	Proven      bool                      `json:"proven"`
	Assignments map[string]stagePlaceJSON `json:"assignments"`
	Routes      []routeJSON               `json:"routes"`
}

type stagePlaceJSON struct {
	Switch   int       `json:"switch"`
	Start    int       `json:"start"`
	End      int       `json:"end"`
	PerStage []float64 `json:"per_stage"`
}

type routeJSON struct {
	From     int   `json:"from"`
	To       int   `json:"to"`
	Switches []int `json:"switches"`
}

// planCodecVersion guards format evolution.
const planCodecVersion = 1

// EncodeJSON serializes the plan's decision variables. The encoding is
// canonical — assignments keyed by name, routes ordered by (From, To)
// — so one plan always yields the same bytes.
func (p *Plan) EncodeJSON() ([]byte, error) {
	if p.Graph == nil || p.Topo == nil {
		return nil, fmt.Errorf("placement: encoding incomplete plan")
	}
	out := planJSON{
		Version:     planCodecVersion,
		SolverName:  p.SolverName,
		SolveTimeNS: int64(p.SolveTime),
		Proven:      p.Proven,
		Assignments: map[string]stagePlaceJSON{},
	}
	for name, sp := range p.Assignments {
		out.Assignments[name] = stagePlaceJSON{
			Switch:   int(sp.Switch),
			Start:    sp.Start,
			End:      sp.End,
			PerStage: sp.PerStage,
		}
	}
	for key, path := range p.Routes {
		r := routeJSON{From: int(key.From), To: int(key.To)}
		for _, s := range path.Switches {
			r.Switches = append(r.Switches, int(s))
		}
		out.Routes = append(out.Routes, r)
	}
	sort.Slice(out.Routes, func(i, j int) bool {
		if out.Routes[i].From != out.Routes[j].From {
			return out.Routes[i].From < out.Routes[j].From
		}
		return out.Routes[i].To < out.Routes[j].To
	})
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("placement: encoding plan: %w", err)
	}
	return data, nil
}

// DecodePlan rehydrates a serialized plan against the TDG and topology
// it was computed for, recomputing route latencies and validating the
// result under the given resource model.
func DecodePlan(data []byte, g *tdg.Graph, topo *network.Topology, rm program.ResourceModel) (*Plan, error) {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("placement: decoding plan: %w", err)
	}
	if in.Version != planCodecVersion {
		return nil, fmt.Errorf("placement: unsupported plan version %d (want %d)", in.Version, planCodecVersion)
	}
	p := &Plan{
		Graph:       g,
		Topo:        topo,
		SolverName:  in.SolverName,
		SolveTime:   time.Duration(in.SolveTimeNS),
		Proven:      in.Proven,
		Assignments: map[string]StagePlacement{},
		Routes:      map[RouteKey]network.Path{},
	}
	for name, sp := range in.Assignments {
		if _, ok := g.Node(name); !ok {
			return nil, fmt.Errorf("placement: plan assigns unknown MAT %q", name)
		}
		p.Assignments[name] = StagePlacement{
			Switch:   network.SwitchID(sp.Switch),
			Start:    sp.Start,
			End:      sp.End,
			PerStage: sp.PerStage,
		}
	}
	for _, r := range in.Routes {
		seq := make([]network.SwitchID, len(r.Switches))
		for i, s := range r.Switches {
			seq[i] = network.SwitchID(s)
		}
		path, err := rebuildPath(topo, seq)
		if err != nil {
			return nil, fmt.Errorf("placement: plan route %d->%d: %w", r.From, r.To, err)
		}
		p.Routes[RouteKey{From: network.SwitchID(r.From), To: network.SwitchID(r.To)}] = path
	}
	if err := p.Validate(rm, 0, 0); err != nil {
		return nil, fmt.Errorf("placement: decoded plan invalid: %w", err)
	}
	return p, nil
}

// rebuildPath reconstructs a network.Path (with latency) from a switch
// sequence, verifying every hop exists.
func rebuildPath(topo *network.Topology, seq []network.SwitchID) (network.Path, error) {
	if len(seq) == 0 {
		return network.Path{}, fmt.Errorf("empty path")
	}
	var total time.Duration
	for i, id := range seq {
		sw, err := topo.Switch(id)
		if err != nil {
			return network.Path{}, err
		}
		total += sw.TransitLatency
		if i == 0 {
			continue
		}
		l, ok := topo.LinkBetween(seq[i-1], id)
		if !ok {
			return network.Path{}, fmt.Errorf("no link %d-%d", seq[i-1], id)
		}
		total += l.Latency
	}
	return network.Path{Switches: seq, Latency: total}, nil
}
