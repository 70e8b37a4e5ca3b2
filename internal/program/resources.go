package program

// Resource modeling (paper §V-C). The paper collapses SRAM, TCAM and
// ALU budgets into a single normalized per-stage capacity C_res and
// derives each MAT's requirement R(a) from static code analysis of its
// properties (rule capacity C_a, match kinds, action complexity),
// citing Jose et al. [8] and dRMT [49]. We reproduce that with a simple
// cost model:
//
//	R(a) = memoryCost(C_a, width, matchType) + aluCost(actions)
//
// normalized so that a "typical" MAT (1k exact rules on a 32-bit key,
// one ALU op) costs about 0.25 of a stage — matching the paper's
// synthetic setting of 10–50 % per-stage consumption per MAT.

// DefaultResourceModel is the resource model used across experiments.
var DefaultResourceModel = ResourceModel{
	SRAMBytesPerStage: 1 << 20, // 1 MiB SRAM-equivalent per stage
	TCAMFactor:        2.5,     // ternary/LPM entries cost ~2.5x SRAM
	ALUWeight:         0.02,    // each primitive op costs 2% of a stage
	MinCost:           0.05,    // even a tiny MAT occupies wiring/crossbar
}

// ResourceModel converts MAT properties into normalized stage fractions.
type ResourceModel struct {
	// SRAMBytesPerStage is the per-stage memory capacity that maps to a
	// normalized cost of 1.0.
	SRAMBytesPerStage int
	// TCAMFactor scales memory cost for ternary/LPM/range matches.
	TCAMFactor float64
	// ALUWeight is the normalized cost of one primitive action op.
	ALUWeight float64
	// MinCost floors the requirement of any MAT.
	MinCost float64
}

// Requirement computes R(a): the total normalized resource requirement
// of the MAT, in units of per-stage capacity (C_res = 1.0).
func (rm ResourceModel) Requirement(m *MAT) float64 {
	if m.FixedRequirement > 0 {
		return m.FixedRequirement
	}
	keyBits := 0
	needsTCAM := false
	for _, k := range m.Keys {
		keyBits += k.Field.Bits
		if k.Type != MatchExact {
			needsTCAM = true
		}
	}
	// Entry width: key bits + action pointer (16) + typical action data (32).
	entryBits := keyBits + 48
	memBytes := float64(m.Capacity) * float64(entryBits) / 8
	cost := memBytes / float64(rm.SRAMBytesPerStage)
	if needsTCAM {
		cost *= rm.TCAMFactor
	}
	ops := 0
	for _, a := range m.Actions {
		ops += len(a.Ops)
	}
	cost += float64(ops) * rm.ALUWeight
	if cost < rm.MinCost {
		cost = rm.MinCost
	}
	return cost
}
