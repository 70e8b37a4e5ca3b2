package equiv

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/program"
)

// maxCandidates bounds counterexample search; the candidate set is the
// zero packet, the all-ones packet, and one rule-solving packet per
// installed rule, in deterministic order.
const maxCandidates = 64

// isPlanDefect reports whether a replay failure counts against the
// deployment: an unrunnable reference is not a plan defect.
func isPlanDefect(err error) bool {
	return err != nil && !errors.Is(err, dataplane.ErrReference)
}

// Counterexample searches the symbolic candidate set for a concrete
// packet whose replay diverges between dep and the reference graph.
// The bool reports whether one was confirmed. Both engines are built
// once per search and every candidate is judged from cold registers.
func (c *Checker) Counterexample(dep *deploy.Deployment) (*dataplane.Packet, bool) {
	if dep == nil {
		return nil, false
	}
	d, err := dataplane.NewDifferential(c.ov.g, dep, 1)
	for _, pkt := range c.candidatePackets() {
		if d != nil { // else the construction failure is every candidate's verdict
			d.Reset()
			_, err = d.Run([]*dataplane.Packet{pkt})
		}
		if isPlanDefect(err) {
			return pkt, true
		}
	}
	return nil, false
}

// candidatePackets synthesizes concrete header assignments from the
// reference MATs' match patterns: each installed rule contributes a
// packet solving its own constraints (Exact/LPM/Ternary take the rule
// value under its mask, Range takes the low bound), plus the zero and
// all-ones packets as boundary probes.
func (c *Checker) candidatePackets() []*dataplane.Packet {
	ov := c.ov
	zero := &dataplane.Packet{Headers: map[string]uint64{}}
	ones := &dataplane.Packet{Headers: map[string]uint64{}}
	for fi, def := range ov.fieldDefs {
		if ov.fieldMeta[fi] {
			continue
		}
		zero.Headers[def.Name] = 0
		mask := uint64(1)<<uint(def.Bits) - 1
		if def.Bits >= 64 {
			mask = ^uint64(0)
		}
		ones.Headers[def.Name] = mask
	}
	out := []*dataplane.Packet{zero, ones}
	for _, node := range ov.nodes {
		for _, r := range node.MAT.Rules {
			if len(out) >= maxCandidates {
				return out
			}
			pkt := zero.Clone()
			// Deterministic field order for reproducible packets.
			names := make([]string, 0, len(r.Matches))
			for fname := range r.Matches {
				names = append(names, fname)
			}
			sort.Strings(names)
			for _, fname := range names {
				if fi, ok := ov.fieldID(fname); !ok || ov.fieldMeta[fi] {
					continue // metadata constraints are not packet inputs
				}
				pkt.Headers[fname] = solvePattern(keyType(node.MAT, fname), r.Matches[fname])
			}
			out = append(out, pkt)
		}
	}
	return out
}

// keyType finds the match type m uses for field fname (MatchExact when
// the rule constrains a field outside the declared key).
func keyType(m *program.MAT, fname string) program.MatchType {
	for _, k := range m.Keys {
		if k.Field.Name == fname {
			return k.Type
		}
	}
	return program.MatchExact
}

// solvePattern picks one concrete value satisfying pat under the match
// kind's semantics.
func solvePattern(t program.MatchType, pat program.Pattern) uint64 {
	switch t {
	case program.MatchRange:
		return pat.Lo
	case program.MatchTernary:
		if pat.Mask != 0 {
			return pat.Value & pat.Mask
		}
		return pat.Value
	default: // exact, LPM
		return pat.Value
	}
}

// formatPacket renders a counterexample for finding hints: sorted
// field=value pairs, zeros elided.
func formatPacket(pkt *dataplane.Packet) string {
	names := make([]string, 0, len(pkt.Headers))
	for k, v := range pkt.Headers {
		if v != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "the all-zero packet"
	}
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%#x", k, pkt.Headers[k])
	}
	return "packet{" + strings.Join(parts, ", ") + "}"
}
