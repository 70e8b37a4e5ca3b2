package milp

import (
	"math"
	"time"
)

const intTol = 1e-6

// canceled reports whether the optional cancel channel is closed; nil
// never cancels.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// bnode is one branch-and-bound node. Bounds are delta-encoded against
// the parent (one tightened bound per node), so the open-node stack
// stays tiny even for deadline-capped searches that enumerate millions
// of nodes — a full per-node copy of the bound arrays makes large
// models exhaust memory before they exhaust the deadline.
type bnode struct {
	parent *bnode
	varIdx int
	bound  float64
	isUB   bool
}

// applyBounds materializes the node's effective bounds into lb/ub,
// which must already hold the root bounds. It walks the ancestry; the
// deepest (tightest) setting of each side wins.
func (n *bnode) applyBounds(lb, ub []float64, seenLB, seenUB []bool) {
	for at := n; at != nil; at = at.parent {
		if at.parent == nil {
			break // root carries no delta
		}
		if at.isUB {
			if !seenUB[at.varIdx] {
				seenUB[at.varIdx] = true
				if at.bound < ub[at.varIdx] {
					ub[at.varIdx] = at.bound
				}
			}
		} else {
			if !seenLB[at.varIdx] {
				seenLB[at.varIdx] = true
				if at.bound > lb[at.varIdx] {
					lb[at.varIdx] = at.bound
				}
			}
		}
	}
}

// deadlinePoll is how many branch-and-bound nodes pass between two
// reads of the clock (and of Options.Cancel).
const deadlinePoll = 64

// Solve runs branch & bound on the model and returns the best integer
// solution found. Continuous models solve in a single LP.
func (m *Model) Solve(opts Options) *Solution {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}
	n := len(m.vars)

	rootLB := make([]float64, n)
	rootUB := make([]float64, n)
	for i, v := range m.vars {
		rootLB[i] = v.lb
		rootUB[i] = v.ub
	}

	best := &Solution{Status: StatusDeadline, Objective: math.Inf(1)}
	haveIncumbent := false

	// Scratch buffers reused across nodes.
	lb := make([]float64, n)
	ub := make([]float64, n)
	seenLB := make([]bool, n)
	seenUB := make([]bool, n)

	root := &bnode{}
	stack := []*bnode{root}
	nodes := 0
	deadlineHit := false

	for len(stack) > 0 {
		if nodes >= maxNodes {
			deadlineHit = true
			break
		}
		if nodes%deadlinePoll == 0 {
			if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
				deadlineHit = true
				break
			}
			if canceled(opts.Cancel) {
				deadlineHit = true
				break
			}
		}
		// Depth-first: take the most recent node (finds incumbents fast,
		// keeps memory small).
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		copy(lb, rootLB)
		copy(ub, rootUB)
		for i := range seenLB {
			seenLB[i] = false
			seenUB[i] = false
		}
		nd.applyBounds(lb, ub, seenLB, seenUB)

		res := m.solveRelaxation(lb, ub)
		switch res.status {
		case StatusInfeasible:
			continue
		case StatusDeadline:
			// The relaxation itself is beyond the dense solver's means.
			deadlineHit = true
			stack = nil
			continue
		case StatusUnbounded:
			if !haveIncumbent {
				best.Status = StatusUnbounded
				best.Nodes = nodes
				return best
			}
			continue
		}
		// Prune by bound.
		if haveIncumbent && res.obj >= best.Objective-1e-9 {
			continue
		}
		// Find the most fractional integer variable.
		branchVar := -1
		bestFrac := intTol
		for i, v := range m.vars {
			if !v.integer {
				continue
			}
			f := res.x[i] - math.Floor(res.x[i])
			dist := math.Min(f, 1-f)
			if dist > bestFrac {
				bestFrac = dist
				branchVar = i
			}
		}
		if branchVar < 0 {
			// Integer feasible: round off tolerance noise.
			x := append([]float64(nil), res.x...)
			for i, v := range m.vars {
				if v.integer {
					x[i] = math.Round(x[i])
				}
			}
			obj := 0.0
			for i, v := range m.vars {
				obj += v.obj * x[i]
			}
			if !haveIncumbent || obj < best.Objective {
				best.Objective = obj
				best.Values = x
				haveIncumbent = true
			}
			continue
		}
		// Branch: x ≤ floor and x ≥ ceil.
		fl := math.Floor(res.x[branchVar])
		down := &bnode{parent: nd, varIdx: branchVar, bound: fl, isUB: true}
		up := &bnode{parent: nd, varIdx: branchVar, bound: fl + 1, isUB: false}
		// Explore the side closer to the fractional value first by
		// pushing it last.
		if res.x[branchVar]-fl > 0.5 {
			stack = append(stack, down, up)
		} else {
			stack = append(stack, up, down)
		}
	}

	best.Nodes = nodes
	switch {
	case haveIncumbent && !deadlineHit:
		best.Status = StatusOptimal
	case haveIncumbent:
		best.Status = StatusFeasible
	case deadlineHit:
		best.Status = StatusDeadline
	default:
		best.Status = StatusInfeasible
	}
	return best
}
