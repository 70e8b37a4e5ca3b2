package placement

import (
	"fmt"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/network"
)

// The y(u,v,p) decision variables of problem P#1 choose which path each
// communicating switch pair uses. AddRoutes fixes them to shortest
// paths — optimal for t_e2e when links are uncongested — but when many
// pairs share links, coordination bytes concentrate: the maximum
// per-link piggyback load can exceed A_max considerably.
// OptimizeRoutes spreads pairs across the k shortest paths to minimize
// that per-link load, subject to a latency budget per pair.

// RouteOptions configure OptimizeRoutes.
type RouteOptions struct {
	// K is the number of candidate paths per pair (the size of the
	// P(u,v) sets materialized from the formulation). Default 3.
	K int
	// Stretch bounds each chosen path's latency to Stretch × the
	// shortest path's. Default 2.0; values below 1 are rejected.
	Stretch float64
}

func (o RouteOptions) withDefaults() (RouteOptions, error) {
	if o.K == 0 {
		o.K = 3
	}
	if o.K < 1 {
		return o, fmt.Errorf("placement: route K must be >= 1, got %d", o.K)
	}
	if o.Stretch == 0 {
		o.Stretch = 2.0
	}
	if o.Stretch < 1 {
		return o, fmt.Errorf("placement: route stretch must be >= 1, got %g", o.Stretch)
	}
	return o, nil
}

// OptimizeRoutes re-chooses the plan's routes among each pair's k
// shortest paths so the maximum per-link coordination bytes is
// minimized (greedy: pairs in decreasing byte order pick the candidate
// path minimizing the resulting worst link). It returns the achieved
// maximum per-link bytes.
func OptimizeRoutes(p *Plan, opts RouteOptions) (int, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return 0, err
	}
	pairs := p.PairBytes()
	if len(pairs) == 0 {
		p.Routes = map[RouteKey]network.Path{}
		return 0, nil
	}

	type pairLoad struct {
		key   RouteKey
		bytes int
	}
	ordered := make([]pairLoad, 0, len(pairs))
	for key, bytes := range pairs {
		ordered = append(ordered, pairLoad{key: key, bytes: bytes})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].bytes != ordered[j].bytes {
			return ordered[i].bytes > ordered[j].bytes
		}
		if ordered[i].key.From != ordered[j].key.From {
			return ordered[i].key.From < ordered[j].key.From
		}
		return ordered[i].key.To < ordered[j].key.To
	})

	linkLoad := map[RouteKey]int{}
	routes := map[RouteKey]network.Path{}
	for _, pl := range ordered {
		cands, err := p.Topo.KShortestPaths(pl.key.From, pl.key.To, opts.K)
		if err != nil {
			return 0, fmt.Errorf("placement: routing %v: %w", pl.key, err)
		}
		budget := time.Duration(float64(cands[0].Latency) * opts.Stretch)
		best := -1
		bestWorst := 0
		for i, cand := range cands {
			if cand.Latency > budget {
				continue
			}
			worst := 0
			for h := 0; h+1 < len(cand.Switches); h++ {
				hop := RouteKey{From: cand.Switches[h], To: cand.Switches[h+1]}
				if load := linkLoad[hop] + pl.bytes; load > worst {
					worst = load
				}
			}
			if best < 0 || worst < bestWorst {
				best = i
				bestWorst = worst
			}
		}
		if best < 0 {
			best = 0 // the shortest path always satisfies the budget
		}
		chosen := cands[best]
		for h := 0; h+1 < len(chosen.Switches); h++ {
			hop := RouteKey{From: chosen.Switches[h], To: chosen.Switches[h+1]}
			linkLoad[hop] += pl.bytes
		}
		routes[pl.key] = chosen
	}
	p.Routes = routes

	max := 0
	for _, load := range linkLoad {
		if load > max {
			max = load
		}
	}
	return max, nil
}
