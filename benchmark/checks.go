package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Output checks run outside every timed window. An operation that
// returns an error, is refused by a gate, or fails a check counts once
// in failed; attempted counts every operation.

// checkDeployment re-derives what the pipeline promised: the plan
// satisfies Eq. 4–9, the compiled configs match it, and nothing is
// hosted on a switch the heal was supposed to vacate.
func checkDeployment(dep *deploy.Deployment, vacated ...network.SwitchID) error {
	if dep == nil || dep.Plan == nil {
		return fmt.Errorf("no deployment returned")
	}
	if err := dep.Plan.Validate(rm, 0, 0); err != nil {
		return err
	}
	if err := dep.Verify(); err != nil {
		return err
	}
	for _, v := range vacated {
		for name, sp := range dep.Plan.Assignments {
			if sp.Switch == v {
				return fmt.Errorf("MAT %q still hosted on vacated switch %d", name, v)
			}
		}
	}
	return nil
}

// planHash fingerprints a plan's decision variables — what
// Plan.EncodeJSON serialises — in a canonical order. EncodeJSON itself
// is not byte-stable (it embeds the solve time and lists routes in map
// order), and re-sorting its output costs more than the heal it would
// check on the large workload.
func planHash(p *placement.Plan) string {
	h := sha256.New()
	names := make([]string, 0, len(p.Assignments))
	for name := range p.Assignments {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sp := p.Assignments[name]
		fmt.Fprintf(h, "%s@%d[%d:%d]%v;", name, sp.Switch, sp.Start, sp.End, sp.PerStage)
	}
	keys := make([]placement.RouteKey, 0, len(p.Routes))
	for k := range p.Routes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	for _, k := range keys {
		fmt.Fprintf(h, "%d>%d%v;", k.From, k.To, p.Routes[k].Switches)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// planHashes holds the first plan hash seen per key; every later plan
// under the same key must repeat it.
type planHashes map[string]string

func (h planHashes) same(key string, p *placement.Plan) error {
	got := planHash(p)
	if want, ok := h[key]; !ok {
		h[key] = got
	} else if want != got {
		return fmt.Errorf("%s plan hash %s differs from the phase's first, %s", key, got, want)
	}
	return nil
}

// firstErr returns err, or the first failing check.
func firstErr(err error, checks ...func() error) error {
	for i := 0; err == nil && i < len(checks); i++ {
		err = checks[i]()
	}
	return err
}

// equivFindings diagnoses the deployment and counts its HE findings by
// severity.
func equivFindings(g *tdg.Graph, dep *deploy.Deployment) (warn, errs int, err error) {
	rep, err := equiv.Diagnose(g, dep)
	if err != nil {
		return 0, 0, err
	}
	for _, f := range rep.Findings {
		switch f.Severity {
		case lint.Error:
			errs++
		case lint.Warning:
			warn++
		}
	}
	return warn, errs, nil
}

// replayAgrees checks the distributed pipeline against the single-box
// ReferenceEngine — an interpreter independent of the pipeline under
// test — over seeded packets.
func replayAgrees(dep *deploy.Deployment, packets int, seed int64) error {
	pkts, _, err := dataplane.TrafficSpec{Packets: packets, Flows: 64, Seed: seed}.Generate()
	if err != nil {
		return err
	}
	_, err = hermes.VerifyEquivalence(dep, pkts)
	return err
}
