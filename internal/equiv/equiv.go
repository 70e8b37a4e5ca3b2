// Package equiv is the symbolic plan-equivalence checker: it proves,
// without replaying packets, that the distributed pipeline induced by
// a placement plan (or a compiled deployment) is functionally
// equivalent to the single-box reference pipeline that executes the
// merged TDG in topological order with all metadata visible.
//
// The model abstracts every field to its write history: the ordered
// sequence of MATs that may have written it. A MAT's observable
// behavior is a pure function of the values it reads (match keys and
// action operands), so if every read in the distributed order observes
// exactly the write history the reference order produces — and every
// metadata read observes it through the coordination headers actually
// carried across switch cuts — the two pipelines compute identical
// results for every packet. The checker walks the distributed MAT
// order (the plan's contracted-DAG switch order, then per-switch stage
// order) comparing per-read writer counts and per-field
// writer-sequence digests against the reference, and tracks the
// per-switch visible history separately so a missing header field is
// caught even when global order is preserved. Match kinds
// (exact/LPM/ternary/range) do not change the abstraction — a match
// outcome depends only on the read values — but they drive
// counterexample synthesis and the HE007 definition comparison.
//
// Verdicts are lint-style findings with stable rule IDs:
//
//	HE001  reference MAT never executed by the pipeline        (error)
//	HE002  extra, duplicated, or undefined MAT executes        (error)
//	HE003  dependent MATs execute out of reference order       (error)
//	HE004  metadata write not delivered across a switch cut    (error)
//	HE005  stale upstream delivery shadows a fresher carry     (error)
//	HE006  default action disagrees with the reference         (error)
//	HE007  MAT definition (keys/actions/rules) drifted         (error)
//	HE008  switch visit order unrealizable (cyclic cuts)       (error)
//	HE009  delivered metadata nothing downstream reads         (info)
//	HE010  unconstrained MATs interleaved differently          (warning)
//
// HE010 covers interleavings of MATs the reference graph never
// ordered: the dependency analyzer guarantees conflicting accesses are
// edge-connected, so such shuffles cannot change results and only the
// packet-replay differential twin double-checks them. The gate
// (Check/CheckDeployment/CheckPlan) fails only on error findings.
//
// The fast path is allocation-free: lowering and the symbolic walk run
// on reusable scratch over the interned reference (compile.go), and
// the first discrepancy defers to a rich diagnostic pass that
// reconstructs explicit writer sequences, classifies the break, and
// synthesizes a concrete counterexample packet confirmed by replay.
// That holds for the package-level gates and the registered hooks too,
// not just a held Checker: they draw one from a pool memoized on the
// reference graph, so only the first proof on a graph allocates.
package equiv

import (
	"fmt"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/tdg"
)

func init() {
	// Solvers gate freshly-minted plans when Options.Equiv is set; the
	// hook lives here so placement does not import equiv (same
	// init-registration scheme as lint's PlanLintHook). Plan-level
	// checks derive the coordination headers deploy.Compile would; the
	// deployment-level gate re-proves against the headers actually
	// compiled.
	placement.PlanEquivHook = func(p *placement.Plan, _ placement.Options) error {
		return CheckPlanAgainst(nil, p, analyzer.Options{})
	}
	deploy.EquivHook = func(d *deploy.Deployment) error {
		return CheckDeployment(nil, d)
	}
}

// Report is the full diagnostic verdict for one pipeline.
type Report struct {
	// Findings holds every HE finding, sorted; an empty list is a
	// clean proof.
	Findings lint.Findings
	// Programs maps each source program (TDG node origin) to its
	// per-program verdict: true when no error finding touches its MATs.
	Programs map[string]bool
	// Counterexample, when non-nil, is a concrete packet whose replay
	// diverges between the distributed and reference engines,
	// confirming an error finding dynamically.
	Counterexample *dataplane.Packet
}

// OK reports whether the pipeline is proven equivalent (warnings and
// infos allowed).
func (r *Report) OK() bool { return !r.Findings.HasErrors() }

// CheckDeployment is the package-level gate: it proves dep's pipeline
// equivalent to the reference graph (dep.Plan.Graph when ref is nil).
// Nil means proven; the error folds the findings otherwise.
func CheckDeployment(ref *tdg.Graph, dep *deploy.Deployment) error {
	c, err := checkerFor(ref, dep)
	if err != nil {
		return err
	}
	defer c.release()
	return c.Check(dep)
}

// CheckPlanAgainst gates a plan pre-compilation against ref (the
// plan's own graph when nil), assuming the coordination headers
// deploy.Compile would derive. aopts is ignored: no analyzer option
// changes those headers any more, and the parameter stays only until
// benchmark/ moves onto the facade (ROADMAP 2(ii)).
func CheckPlanAgainst(ref *tdg.Graph, p *placement.Plan, aopts analyzer.Options) error {
	if ref == nil {
		if p == nil {
			return fmt.Errorf("equiv: nil plan")
		}
		ref = p.Graph
	}
	c, err := acquire(ref)
	if err != nil {
		return err
	}
	defer c.release()
	return c.CheckPlan(p)
}

// Diagnose builds the full report for a deployment, including
// non-gating findings and, on failure, a replay-confirmed
// counterexample packet.
func Diagnose(ref *tdg.Graph, dep *deploy.Deployment) (*Report, error) {
	c, err := checkerFor(ref, dep)
	if err != nil {
		return nil, err
	}
	defer c.release()
	return c.Diagnose(dep)
}

// Diagnose is the Checker-level full report for a deployment.
func (c *Checker) Diagnose(dep *deploy.Deployment) (*Report, error) {
	if err := c.lowerDeployment(dep); err != nil {
		return nil, err
	}
	r := &Report{Findings: c.diagnose(true)}
	c.fillPrograms(r)
	if r.Findings.HasErrors() {
		if pkt, ok := c.Counterexample(dep); ok {
			r.Counterexample = pkt
			c.attachCounterexample(r, pkt)
		}
	}
	return r, nil
}

// DiagnosePlan is the Checker-level full report for an uncompiled
// plan. No counterexample is synthesized: replay confirmation needs
// compiled headers.
func (c *Checker) DiagnosePlan(p *placement.Plan) (*Report, error) {
	if err := c.lowerPlan(p); err != nil {
		return nil, err
	}
	r := &Report{Findings: c.diagnose(true)}
	c.fillPrograms(r)
	return r, nil
}

// checkerFor resolves the reference graph for a deployment check and
// draws a pooled Checker for it; the caller releases it.
func checkerFor(ref *tdg.Graph, dep *deploy.Deployment) (*Checker, error) {
	if ref == nil {
		if dep == nil || dep.Plan == nil {
			return nil, fmt.Errorf("equiv: nil deployment")
		}
		ref = dep.Plan.Graph
	}
	return acquire(ref)
}

// fillPrograms derives the per-program verdict from the findings'
// objects: an error finding on a MAT condemns that MAT's origin
// programs; errors on plan-wide objects condemn every program.
func (c *Checker) fillPrograms(r *Report) {
	r.Programs = map[string]bool{}
	for _, node := range c.ov.nodes {
		for _, org := range node.Origin {
			r.Programs[org] = true
		}
	}
	condemn := func(names []string) {
		for _, n := range names {
			r.Programs[n] = false
		}
	}
	for _, f := range r.Findings {
		if f.Severity != lint.Error {
			continue
		}
		if x, ok := c.ov.index[f.Object]; ok {
			if len(c.ov.nodes[x].Origin) == 0 {
				continue
			}
			condemn(c.ov.nodes[x].Origin)
			continue
		}
		// Plan-wide or field-level object: no single owner.
		for org := range r.Programs {
			r.Programs[org] = false
		}
	}
}

// attachCounterexample appends the confirmed packet to the first error
// finding's hint so text/JSON consumers see it inline.
func (c *Checker) attachCounterexample(r *Report, pkt *dataplane.Packet) {
	for i := range r.Findings {
		if r.Findings[i].Severity == lint.Error {
			if r.Findings[i].Hint != "" {
				r.Findings[i].Hint += "; "
			}
			r.Findings[i].Hint += "replay-confirmed counterexample: " + formatPacket(pkt)
			return
		}
	}
}
