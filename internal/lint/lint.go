// Package lint is a static diagnostics engine for Hermes: it checks
// data plane programs, table dependency graphs, and deployment plans
// against the structural properties the paper states but the rest of
// the repo only assumes (§IV dependency classification and metadata
// sizes, §V constraints Eq. 4–9).
//
// Every check emits a Finding with a stable rule ID so tooling can
// filter or gate on specific rules:
//
//	HL000  parse error (CLI surface)
//	HL001  unreachable table: isolated TDG node, on no control path
//	HL002  dead action: never referenced by a rule nor the default
//	HL003  metadata field read before any write (uninitialized read)
//	HL004  declared field never referenced
//	HL005  program metadata footprint exceeds the header budget
//	HL006  TDG has a cycle
//	HL007  dependency classification mismatch vs. recomputed M/A/R/S
//	HL008  edge metadata size mismatch vs. recomputed A(a,b)
//	HL009  dead store: metadata written but never read downstream
//	HL010  keyless table with multiple actions (only default can run)
//	HL011  table with match keys but neither rules nor a default
//
//	HL101  MAT not deployed (Eq. 6)
//	HL102  MAT on an unknown or non-programmable switch (Eq. 6)
//	HL103  stage range ρ_begin/ρ_end invalid or requirement not met (Eq. 6/8)
//	HL104  per-stage resource capacity exceeded (Eq. 9)
//	HL105  co-located dependency violates stage order (Eq. 8)
//	HL106  cross-switch dependency has no valid route (Eq. 7)
//	HL107  t_e2e exceeds ε1 (Eq. 4)
//	HL108  Q_occ exceeds ε2 (Eq. 5)
//	HL109  plan objective accessors disagree with recomputation
//	HL110  switch-level dependency graph is cyclic
//	HL111  route traverses non-existent links or misstates latency
//	HL112  MAT on a switch marked down in the topology's fault state (Eq. 6)
//
// The HL0xx graph and program rules recompute every MAT's read/write
// footprint from its own keys and ops, never from MAT.Footprint or the
// merge's footprints, so their cross-checks of the analyzer do not
// inherit its bugs. They run on field ids: the names come from the
// field table of the graph's tdg.Index (tdg.InternFields for a single
// program), the widths from each MAT's own definitions, and the sets
// are sorted id lists, so a gate hashes no field name beyond the
// table's one interning per graph, which the equivalence proof's
// compile reuses.
//
// The HL1xx family is an independent re-implementation of the plan
// constraints; findings with Oracle set participate in the
// differential oracle against Plan.Validate and deploy.Verify (see
// CheckPlanOracle).
package lint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/hermes-net/hermes/internal/p4lite"
)

// Severity grades a finding.
type Severity int

const (
	// Info findings are stylistic or advisory.
	Info Severity = iota + 1
	// Warning findings are likely bugs that do not invalidate a
	// deployment by themselves.
	Warning
	// Error findings invalidate the program or plan; lint surfaces
	// exit non-zero when any is present.
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Finding is one diagnostic.
type Finding struct {
	// Rule is the stable rule ID, e.g. "HL003".
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// File is the source file the finding refers to, when known.
	File string `json:"file,omitempty"`
	// Pos is the source position from the p4lite lexer; zero when the
	// object has no textual source (hand-built graphs, plans).
	Pos p4lite.Pos `json:"pos,omitempty"`
	// Object names the offending entity: a MAT, field, action
	// ("mat.action"), switch ("switch:NAME"), or edge ("a->b").
	Object string `json:"object,omitempty"`
	// Message states the defect.
	Message string `json:"message"`
	// Hint suggests a fix when one is known.
	Hint string `json:"hint,omitempty"`
	// Eq is the paper constraint the finding checks (4–9), 0 otherwise.
	Eq int `json:"eq,omitempty"`
	// Oracle marks plan findings that re-implement a constraint
	// Plan.Validate also enforces; the differential oracle compares
	// only these against Validate's verdict.
	Oracle bool `json:"oracle,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	var b strings.Builder
	if f.File != "" {
		fmt.Fprintf(&b, "%s:", f.File)
	}
	if !f.Pos.IsZero() {
		fmt.Fprintf(&b, "%d:%d:", f.Pos.Line, f.Pos.Col)
	}
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "%s %s:", f.Rule, f.Severity)
	if f.Object != "" {
		fmt.Fprintf(&b, " %s:", f.Object)
	}
	fmt.Fprintf(&b, " %s", f.Message)
	if f.Hint != "" {
		fmt.Fprintf(&b, " (hint: %s)", f.Hint)
	}
	return b.String()
}

// Findings is a sortable finding collection.
type Findings []Finding

// Sort orders findings by file, position, rule, then object, giving
// deterministic output.
func (fs Findings) Sort() {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Object < b.Object
	})
}

// HasErrors reports whether any finding is error-severity.
func (fs Findings) HasErrors() bool {
	for _, f := range fs {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// OracleErrors returns the error-severity findings that participate in
// the differential plan oracle.
func (fs Findings) OracleErrors() Findings {
	var out Findings
	for _, f := range fs {
		if f.Oracle && f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

// Text renders the findings one per line.
func (fs Findings) Text() string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the findings as an indented JSON array.
func (fs Findings) JSON() ([]byte, error) {
	if fs == nil {
		fs = Findings{}
	}
	return json.MarshalIndent(fs, "", "  ")
}

// Err folds error-severity findings into a single error, or nil. The
// gates behind DeployOptions.Lint and the supervisor use it to fail
// fast.
func (fs Findings) Err() error {
	var errs Findings
	for _, f := range fs {
		if f.Severity == Error {
			errs = append(errs, f)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, f := range errs {
		msgs[i] = f.String()
	}
	return fmt.Errorf("lint: %d error finding(s):\n%s", len(errs), strings.Join(msgs, "\n"))
}
