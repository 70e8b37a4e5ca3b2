// The paper's own evaluation: Figure 2 and Exp#1–Exp#6. Tables only —
// none of them keeps a baseline or declares a gate.
package main

import "github.com/hermes-net/hermes/internal/experiments"

// solverCell is one solver's result at one x-axis point: a program
// count (Exp#1, Exp#5) or a Table III topology (Exp#2–Exp#4).
type solverCell struct {
	x int
	experiments.SolverResult
}

// solverCells flattens per-point result lists, dropping failed solvers
// unless keepFailed (the tables that have an err column to show them).
func solverCells[R any](points []R, split func(R) (int, []experiments.SolverResult), keepFailed bool) []solverCell {
	var cells []solverCell
	for _, p := range points {
		x, results := split(p)
		for _, res := range results {
			if res.Err == "" || keepFailed {
				cells = append(cells, solverCell{x, res})
			}
		}
	}
	return cells
}

// Columns shared by the per-solver tables.
var (
	solverCol = col(key, "solver", "solver", "", func(c solverCell) any { return c.Solver })
	headerCol = col(det, "header_bytes", "header(B)", "", func(c solverCell) any { return c.HeaderBytes })
	amaxCol   = col(det, "amax_bytes", "A_max(B)", "", func(c solverCell) any { return c.AMax })
	execCol   = col(timing, "exec_ms", "exec", "%.3fms", func(c solverCell) any { return float64(c.ExecTime.Microseconds()) / 1000 })
	fctCol    = col(det, "fct_overhead", "FCT+", "%+.1f%%", func(c solverCell) any { return c.FCTOverhead })
	gputCol   = col(det, "goodput_loss", "goodput-", "%+.1f%%", func(c solverCell) any { return c.GoodputLoss })
	cappedCol = col(det, "capped", "capped", "", func(c solverCell) any { return c.Capped })
	errCol    = col(det, "err", "err", "", func(c solverCell) any { return c.Err })
)

func xCol(name string) column { return col(key, name, name, "", func(c solverCell) any { return c.x }) }

// studyCols is the full per-solver table of Exp#1 and Exp#5.
var studyCols = []column{xCol("programs"), solverCol, headerCol, amaxCol, execCol, fctCol, gputCol, cappedCol, errCol}

var fig2Exp = experiment{
	name: "fig2", title: "Figure 2: per-packet byte overhead vs end-to-end performance", all: true,
	tables: []table{{name: "rows", cols: []column{
		col(key, "packet_bytes", "pkt(B)", "", func(p experiments.Fig2Point) any { return p.PacketBytes }),
		col(key, "overhead_bytes", "ovh(B)", "", func(p experiments.Fig2Point) any { return p.OverheadBytes }),
		col(det, "fct_increase", "FCT+", "%.1f%%", func(p experiments.Fig2Point) any { return p.FCTIncrease }),
		col(det, "goodput_decrease", "goodput-", "%.1f%%", func(p experiments.Fig2Point) any { return p.GoodputDecrease }),
	}}},
	run: func(*runCtx) (result, error) {
		pts, err := experiments.Figure2()
		return oneTable(nil, pts), err
	},
}

var exp1Exp = experiment{
	name: "exp1", title: "Exp#1 (Figure 5): testbed study, 3-switch linear, 2-10 real programs", all: true,
	tables: []table{{name: "rows", cols: studyCols}},
	run: func(c *runCtx) (result, error) {
		pts, err := experiments.Exp1(c.cfg)
		return oneTable(nil, solverCells(pts, func(r experiments.Exp1Row) (int, []experiments.SolverResult) {
			return r.Programs, r.Results
		}, true)), err
	},
}

// topoCells runs (once) the Table III sweep Exp#2–Exp#4 all read.
func topoCells(c *runCtx, keepFailed bool) (result, error) {
	if c.topoRows == nil {
		pts, err := experiments.Exp2(c.cfg, c.programs)
		if err != nil {
			return result{}, err
		}
		c.topoRows = pts
	}
	return oneTable(map[string]any{"programs": c.programs},
		solverCells(c.topoRows, func(r experiments.TopoRow) (int, []experiments.SolverResult) {
			return r.Topology, r.Results
		}, keepFailed)), nil
}

var exp2Exp = experiment{
	name: "exp2", title: "Exp#2 (Figure 6): per-packet byte overhead, Table III topologies", all: true,
	tables: []table{{name: "rows", cols: []column{xCol("topology"), solverCol, headerCol, amaxCol, errCol}}},
	run:    func(c *runCtx) (result, error) { return topoCells(c, true) },
}

var exp3Exp = experiment{
	name: "exp3", title: "Exp#3 (Figure 7): execution time (capped runs plotted as 10^7 ms)", all: true,
	tables: []table{{name: "rows", cols: []column{xCol("topology"), solverCol, execCol, cappedCol}}},
	run:    func(c *runCtx) (result, error) { return topoCells(c, false) },
}

var exp4Exp = experiment{
	name: "exp4", title: "Exp#4 (Figure 8): end-to-end impact of the deployed overhead (1024B packets)", all: true,
	tables: []table{{name: "rows", cols: []column{xCol("topology"), solverCol, fctCol, gputCol}}},
	run:    func(c *runCtx) (result, error) { return topoCells(c, false) },
}

var exp5Exp = experiment{
	name: "exp5", title: "Exp#5 (Figure 9): scalability on topology 10, 10-50 programs", all: true,
	tables: []table{{name: "rows", cols: studyCols}},
	run: func(c *runCtx) (result, error) {
		pts, err := experiments.Exp5(c.cfg)
		return oneTable(nil, solverCells(pts, func(r experiments.ScaleRow) (int, []experiments.SolverResult) {
			return r.Programs, r.Results
		}, true)), err
	},
}

var exp6Exp = experiment{
	name: "exp6", title: "Exp#6: switch resource consumption (10 concurrent sketches), stage-units", all: true,
	tables: []table{{name: "rows", cols: []column{
		col(det, "ground_truth", "ground truth (each sketch alone)", "", func(r *experiments.Exp6Result) any { return r.GroundTruth }),
		col(det, "hermes_used", "Hermes", "", func(r *experiments.Exp6Result) any { return r.HermesUsed }),
		col(det, "speed_used", "SPEED", "", func(r *experiments.Exp6Result) any { return r.SPEEDUsed }),
		col(det, "merge_savings", "saved by merging", "", func(r *experiments.Exp6Result) any { return r.MergeSavings }),
		col(det, "hermes_extra", "added by coordination", "", func(r *experiments.Exp6Result) any { return r.HermesExtra }),
	}}},
	run: func(c *runCtx) (result, error) {
		res, err := experiments.Exp6(c.cfg)
		return oneTable(nil, []*experiments.Exp6Result{res}), err
	},
}
