package equiv

import (
	"fmt"
	"sort"
	"strings"

	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/program"
)

// HE rule IDs emitted by the equivalence checker. They live in the
// same Finding shape as the HL lint family so CLI/JSON tooling is
// shared, but prove a different property: pipeline ≡ reference.
const (
	RuleMissingMAT     = "HE001" // reference MAT absent from the pipeline
	RuleExtraMAT       = "HE002" // extra, duplicated, or undefined MAT executes
	RuleReordered      = "HE003" // dependent MATs execute out of reference order
	RuleCarryMissing   = "HE004" // metadata write not delivered across a switch cut
	RuleAmbiguousCarry = "HE005" // stale upstream delivery shadows a fresher carry
	RuleDefaultAction  = "HE006" // default action disagrees with the reference
	RuleDefMismatch    = "HE007" // MAT definition (keys/actions/rules) drifted
	RuleOrderUnreal    = "HE008" // switch visit order unrealizable (cyclic cuts)
	RuleOverCarry      = "HE009" // delivered metadata nobody downstream reads
	RuleBenignShuffle  = "HE010" // unconstrained MATs interleaved differently
)

// swName renders a used-switch index as the switch ID for messages.
func (c *Checker) swName(u int32) string {
	return fmt.Sprintf("%d", int(c.usedIDs[u]))
}

// findingsErr folds error-severity findings into a gate error; nil if
// every finding is Warning/Info (the pipeline is still equivalent).
func findingsErr(fs lint.Findings) error {
	n := 0
	var first *lint.Finding
	for i := range fs {
		if fs[i].Severity == lint.Error {
			if first == nil {
				first = &fs[i]
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return fmt.Errorf("equiv: pipeline not equivalent to reference: %d finding(s), first: [%s] %s: %s",
		n, first.Rule, first.Object, first.Message)
}

// behaviorallyEqual compares two MAT definitions on the fields that
// affect packet processing; capacity and resource sizing are placement
// concerns, not behavior.
func behaviorallyEqual(a, b *program.MAT) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	ac, bc := *a, *b
	ac.Capacity, bc.Capacity = 0, 0
	ac.FixedRequirement, bc.FixedRequirement = 0, 0
	return ac.Equivalent(&bc)
}

// diagnose re-walks the lowered pipeline with explicit writer
// sequences and classifies every discrepancy the fast gate detects
// into HE findings. Allocation is fine here: this path only runs on
// broken pipelines or explicit Diagnose calls. When report is true the
// non-gating informational rules (HE009) are computed too.
func (c *Checker) diagnose(report bool) lint.Findings {
	var fs lint.Findings
	fs = append(fs, c.structuralFindings()...)
	if fs.HasErrors() {
		fs.Sort()
		return fs
	}
	fs = append(fs, c.walkFindings()...)
	if report {
		fs = append(fs, c.overCarryFindings()...)
	}
	fs.Sort()
	return fs
}

// structuralFindings covers the checks that precede the symbolic walk:
// visitability, MAT multiplicity, and definition drift.
func (c *Checker) structuralFindings() lint.Findings {
	var fs lint.Findings
	if c.cycle {
		var stuck []string
		for u, r := range c.rank {
			if r < 0 {
				stuck = append(stuck, c.swName(int32(u)))
			}
		}
		fs = append(fs, lint.Finding{
			Rule: RuleOrderUnreal, Severity: lint.Error, Object: "plan",
			Message: fmt.Sprintf("switch visit order is unrealizable: cross-switch dependencies form a cycle through switches %s", strings.Join(stuck, ", ")),
			Hint:    "move one MAT of the cycle so the switch-contracted dependency graph is acyclic",
		})
	}
	for x, n := range c.seenCnt {
		name := c.ov.names[x]
		switch {
		case n == 0 && !c.cycle:
			fs = append(fs, lint.Finding{
				Rule: RuleMissingMAT, Severity: lint.Error, Object: name,
				Message: "reference MAT is never executed by the distributed pipeline",
				Hint:    "assign the MAT to a switch stage (it was dropped from the plan or its switch config)",
			})
		case n > 1:
			fs = append(fs, lint.Finding{
				Rule: RuleExtraMAT, Severity: lint.Error, Object: name,
				Message: fmt.Sprintf("MAT executes %d times in the distributed pipeline; the reference executes it once", n),
			})
		}
	}
	for _, name := range c.unknown {
		fs = append(fs, lint.Finding{
			Rule: RuleExtraMAT, Severity: lint.Error, Object: name,
			Message: "pipeline executes a MAT the reference program set does not contain",
		})
	}
	for _, name := range c.noDef {
		fs = append(fs, lint.Finding{
			Rule: RuleExtraMAT, Severity: lint.Error, Object: name,
			Message: "pipeline schedules a MAT with no definition in the deployed graph; the engine would abort",
		})
	}
	for _, x := range c.dirtyDef {
		name := c.ov.names[x]
		ref := c.ov.nodes[x].MAT
		dep := c.deployedDef(name)
		if behaviorallyEqual(ref, dep) {
			continue
		}
		if dep != nil && ref.DefaultAction != dep.DefaultAction {
			fs = append(fs, lint.Finding{
				Rule: RuleDefaultAction, Severity: lint.Error, Object: name,
				Message: fmt.Sprintf("default action %q disagrees with the reference default %q", dep.DefaultAction, ref.DefaultAction),
				Hint:    "a packet missing every rule takes a different action than on the single-box pipeline",
			})
			// Re-check with defaults aligned: if the rest matches, the
			// default was the only drift.
			depCopy := *dep
			depCopy.DefaultAction = ref.DefaultAction
			if behaviorallyEqual(ref, &depCopy) {
				continue
			}
		}
		fs = append(fs, lint.Finding{
			Rule: RuleDefMismatch, Severity: lint.Error, Object: name,
			Message: fmt.Sprintf("deployed MAT definition differs from the reference (%s)", defDiff(ref, dep)),
			Hint:    "keys, actions and installed rules must be byte-identical to the merged program's MAT",
		})
	}
	return fs
}

// defDiff names the first behavioral aspect that differs, for the
// HE007 message.
func defDiff(ref, dep *program.MAT) string {
	if dep == nil {
		return "no deployed definition"
	}
	if len(ref.Keys) != len(dep.Keys) {
		return fmt.Sprintf("%d vs %d match keys", len(dep.Keys), len(ref.Keys))
	}
	for i := range ref.Keys {
		if ref.Keys[i] != dep.Keys[i] {
			return fmt.Sprintf("match key %d: %s(%s/%d bits) vs %s(%s/%d bits)", i,
				dep.Keys[i].Field.Name, dep.Keys[i].Type, dep.Keys[i].Field.Bits,
				ref.Keys[i].Field.Name, ref.Keys[i].Type, ref.Keys[i].Field.Bits)
		}
	}
	if len(ref.Actions) != len(dep.Actions) {
		return fmt.Sprintf("%d vs %d actions", len(dep.Actions), len(ref.Actions))
	}
	for i := range ref.Actions {
		a, b := ref.Actions[i], dep.Actions[i]
		if a.Name != b.Name || len(a.Ops) != len(b.Ops) {
			return fmt.Sprintf("action %q differs", a.Name)
		}
		for j := range a.Ops {
			if !opsSame(a.Ops[j], b.Ops[j]) {
				return fmt.Sprintf("action %q op %d differs", a.Name, j)
			}
		}
	}
	if len(ref.Rules) != len(dep.Rules) {
		return fmt.Sprintf("%d vs %d rules", len(dep.Rules), len(ref.Rules))
	}
	return "installed rules differ"
}

func opsSame(a, b program.Op) bool {
	if a.Kind != b.Kind || a.Dst != b.Dst || a.Imm != b.Imm || len(a.Srcs) != len(b.Srcs) {
		return false
	}
	for i := range a.Srcs {
		if a.Srcs[i] != b.Srcs[i] {
			return false
		}
	}
	return true
}

// walkFindings replays the lowered pipeline with explicit per-field
// writer sequences and classifies order, carry, ambiguity and final
// write-order discrepancies.
func (c *Checker) walkFindings() lint.Findings {
	ov := c.ov
	f := len(ov.fieldNames)
	u := len(c.visit)
	var fs lint.Findings
	reported := map[string]bool{}

	// Reference writer sequences per field.
	refSeq := make([][]int32, f)
	for _, x := range ov.refOrder {
		for s := ov.writeStart[x]; s < ov.writeStart[x+1]; s++ {
			fi := ov.writeF[s]
			refSeq[fi] = append(refSeq[fi], x)
		}
	}

	// Candidate histories delivered per (switch, field) this entry:
	// the engine applies them in upstream visit rank, later wins.
	type impCand struct {
		from int32
		seq  []int32
	}
	global := make([][]int32, f)
	vis := make([][]int32, u*f)
	cands := make([][]impCand, u*f)

	ei := 0
	for r := 0; r < u; r++ {
		su := c.visit[r]
		row := int(su) * f
		for i := 0; i < f; i++ {
			vis[row+i] = vis[row+i][:0]
			cands[row+i] = cands[row+i][:0]
		}
		for s := c.impStart[r]; s < c.impStart[r+1]; s++ {
			from, fi := c.impFrom[s], c.impF[s]
			src, dst := int(from)*f+int(fi), row+int(fi)
			seq := append([]int32(nil), vis[src]...)
			vis[dst] = append(vis[dst][:0], seq...)
			cands[dst] = append(cands[dst], impCand{from: from, seq: seq})
		}
		for ; ei < len(c.execSw) && c.execSw[ei] == su; ei++ {
			x := c.execMAT[ei]
			name := ov.names[x]
			for s := ov.readStart[x]; s < ov.readStart[x+1]; s++ {
				fi := ov.readF[s]
				fname := ov.fieldNames[fi]
				want := int(ov.refReadCnt[s])
				if len(global[fi]) != want {
					key := "ord/" + name + "/" + fname
					if !reported[key] {
						reported[key] = true
						fs = append(fs, c.classifyOrder(name, fname, x, refSeq[fi][:want], global[fi])...)
					}
				}
				if !ov.fieldMeta[fi] {
					continue
				}
				dst := row + int(fi)
				if seqEqual(vis[dst], global[fi]) {
					continue
				}
				// A read observes only the LAST write: when the visible
				// and global histories end on the same writer, every
				// dropped or shadowed prefix entry is value-dead for
				// this read and the engine reads the identical value.
				// Mirrors walkClean's visLast relaxation.
				if lv, lg := len(vis[dst]), len(global[fi]); lv > 0 && lg > 0 &&
					vis[dst][lv-1] == global[fi][lg-1] {
					continue
				}
				// Differing candidate deliveries mean the winning
				// (later-visited) upstream shadowed a fresher history:
				// HE005. A single or absent delivery that misses
				// writes is a plain carry gap: HE004.
				conflicting := false
				for i := 1; i < len(cands[dst]); i++ {
					if !seqEqual(cands[dst][i].seq, cands[dst][0].seq) {
						conflicting = true
						break
					}
				}
				if conflicting {
					key := "amb/" + name + "/" + fname
					if !reported[key] {
						reported[key] = true
						srcs := make([]string, len(cands[dst]))
						for i, cd := range cands[dst] {
							srcs[i] = c.swName(cd.from)
						}
						fs = append(fs, lint.Finding{
							Rule: RuleAmbiguousCarry, Severity: lint.Error, Object: name,
							Message: fmt.Sprintf("metadata %q reaches switch %s from upstream switches %s with conflicting write histories; the last delivery shadows the fresher one", fname, c.swName(su), strings.Join(srcs, ", ")),
							Hint:    "route the field through a single up-to-date upstream, or carry the missing writes into the stale exporter",
						})
					}
				} else {
					key := "carry/" + name + "/" + fname
					if !reported[key] {
						reported[key] = true
						fs = append(fs, c.carryFinding(name, fname, su, vis[dst], global[fi]))
					}
				}
			}
			for s := ov.writeStart[x]; s < ov.writeStart[x+1]; s++ {
				fi := ov.writeF[s]
				global[fi] = append(global[fi], x)
				if ov.fieldMeta[fi] {
					dst := row + int(fi)
					vis[dst] = append(vis[dst], x)
				}
			}
		}
	}

	// Final write-after-write order per field.
	for fi := 0; fi < f; fi++ {
		if seqEqual(global[fi], refSeq[fi]) {
			continue
		}
		fname := ov.fieldNames[fi]
		key := "waw/" + fname
		if !reported[key] {
			reported[key] = true
			fs = append(fs, c.classifyOrder("field:"+fname, fname, -1, refSeq[fi], global[fi])...)
		}
	}
	return fs
}

// classifyOrder explains a writer-sequence mismatch on one field.
// Premature or delayed writers that the reference graph orders against
// the reader (or against each other, for final-state mismatches) are
// HE003 errors; interleavings the TDG never constrained are HE010
// warnings — the engines produce identical results for them only when
// the writes commute, which the reference replay twin still checks.
func (c *Checker) classifyOrder(object, fname string, reader int32, want, got []int32) lint.Findings {
	ov := c.ov
	inWant := map[int32]int{}
	for _, w := range want {
		inWant[w]++
	}
	inGot := map[int32]int{}
	for _, w := range got {
		inGot[w]++
	}
	var premature, delayed []int32
	for w, n := range inGot {
		if n > inWant[w] {
			premature = append(premature, w)
		}
	}
	for w, n := range inWant {
		if n > inGot[w] {
			delayed = append(delayed, w)
		}
	}
	sortInt32(premature)
	sortInt32(delayed)

	ordered := false
	var against string
	if reader >= 0 {
		for _, w := range premature {
			if ov.reachable(reader, w) {
				ordered, against = true, ov.names[w]
				break
			}
		}
		if !ordered {
			for _, w := range delayed {
				if ov.reachable(w, reader) {
					ordered, against = true, ov.names[w]
					break
				}
			}
		}
	} else {
		// Final-state mismatch: find the first position where the
		// sequences diverge and test whether that pair is TDG-ordered.
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		if i < len(want) && i < len(got) {
			a, b := want[i], got[i]
			if ov.reachable(a, b) || ov.reachable(b, a) {
				ordered, against = true, ov.names[a]
			}
		} else if len(premature) > 0 || len(delayed) > 0 {
			ordered = true // writer sets differ outright; never benign
			if len(delayed) > 0 {
				against = ov.names[delayed[0]]
			} else {
				against = ov.names[premature[0]]
			}
		}
	}

	msg := fmt.Sprintf("writes to %q reach %s out of reference order (premature: %s; missing: %s)",
		fname, object, nameList(ov, premature), nameList(ov, delayed))
	if ordered {
		return lint.Findings{{
			Rule: RuleReordered, Severity: lint.Error, Object: object,
			Message: msg + fmt.Sprintf("; the reference graph orders %q against this access", against),
			Hint:    "restore the dependency order: the writer and reader must keep their TDG order across stages and switches",
		}}
	}
	return lint.Findings{{
		Rule: RuleBenignShuffle, Severity: lint.Warning, Object: object,
		Message: msg + "; the interleaved MATs are unordered in the reference graph",
		Hint:    "harmless if the writes commute; the packet-replay twin still validates final state",
	}}
}

// carryFinding explains a visible-vs-global history gap on a metadata
// read: some writer's value was not delivered across a switch cut.
func (c *Checker) carryFinding(reader, fname string, su int32, visible, global []int32) lint.Finding {
	ov := c.ov
	have := map[int32]int{}
	for _, w := range visible {
		have[w]++
	}
	var missing []int32
	for _, w := range global {
		if have[w] > 0 {
			have[w]--
			continue
		}
		missing = append(missing, w)
	}
	sortInt32(missing)
	msg := fmt.Sprintf("metadata %q read by %q on switch %s is missing upstream writes by %s",
		fname, reader, c.swName(su), nameList(ov, missing))
	if len(missing) == 0 {
		msg = fmt.Sprintf("metadata %q reaches %q on switch %s with a stale write history (visible %s, expected %s)",
			fname, reader, c.swName(su), nameList(ov, visible), nameList(ov, global))
	}
	return lint.Finding{
		Rule: RuleCarryMissing, Severity: lint.Error, Object: reader,
		Message: msg,
		Hint:    fmt.Sprintf("carry %q in the coordination header(s) into switch %s", fname, c.swName(su)),
	}
}

// overCarryFindings flags delivered fields nothing downstream uses:
// correct but wasted wire bytes. Report-only (HE009, Info).
func (c *Checker) overCarryFindings() lint.Findings {
	ov := c.ov
	f := len(ov.fieldNames)
	var fs lint.Findings
	// readBy[u*f+fi]: some MAT hosted on used switch u reads fi.
	readBy := make([]bool, len(c.visit)*f)
	for ei := range c.execMAT {
		x := c.execMAT[ei]
		row := int(c.execSw[ei]) * f
		for s := ov.readStart[x]; s < ov.readStart[x+1]; s++ {
			readBy[row+int(ov.readF[s])] = true
		}
	}
	// exports[u*f+fi]: u exports fi onward (a later switch imports it
	// from u), so an unused import can still be a relay hop.
	exports := make([]bool, len(c.visit)*f)
	for r := range c.visit {
		for s := c.impStart[r]; s < c.impStart[r+1]; s++ {
			exports[int(c.impFrom[s])*f+int(c.impF[s])] = true
		}
	}
	seen := map[string]bool{}
	for r := range c.visit {
		su := c.visit[r]
		for s := c.impStart[r]; s < c.impStart[r+1]; s++ {
			fi := c.impF[s]
			if readBy[int(su)*f+int(fi)] || exports[int(su)*f+int(fi)] {
				continue
			}
			key := c.swName(su) + "/" + ov.fieldNames[fi]
			if seen[key] {
				continue
			}
			seen[key] = true
			fs = append(fs, lint.Finding{
				Rule: RuleOverCarry, Severity: lint.Info,
				Object:  "switch:" + c.swName(su),
				Message: fmt.Sprintf("metadata %q is delivered to switch %s but no MAT there reads it and it is not relayed onward", ov.fieldNames[fi], c.swName(su)),
				Hint:    "tighten the dependency's carried set to save header bytes",
			})
		}
	}
	return fs
}

func seqEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func nameList(ov *compiled, xs []int32) string {
	if len(xs) == 0 {
		return "none"
	}
	names := make([]string, len(xs))
	for i, x := range xs {
		names[i] = ov.names[x]
	}
	return strings.Join(names, ", ")
}
