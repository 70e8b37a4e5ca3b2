package program

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/fields"
)

// equivalentRef is Equivalent as it was before it stopped allocating:
// copy and sort both MATs' keys and actions, then compare them position
// by position. Kept as the differential reference.
func equivalentRef(m, o *MAT) bool {
	if m.Capacity != o.Capacity || len(m.Keys) != len(o.Keys) ||
		len(m.Actions) != len(o.Actions) || len(m.Rules) != len(o.Rules) ||
		m.DefaultAction != o.DefaultAction ||
		m.FixedRequirement != o.FixedRequirement {
		return false
	}
	sortKeys := func(ks []MatchKey) {
		sort.Slice(ks, func(i, j int) bool {
			if ks[i].Field.Name != ks[j].Field.Name {
				return ks[i].Field.Name < ks[j].Field.Name
			}
			return ks[i].Type < ks[j].Type
		})
	}
	mk := append([]MatchKey(nil), m.Keys...)
	ok := append([]MatchKey(nil), o.Keys...)
	sortKeys(mk)
	sortKeys(ok)
	for i := range mk {
		if mk[i] != ok[i] {
			return false
		}
	}
	ma := append([]Action(nil), m.Actions...)
	oa := append([]Action(nil), o.Actions...)
	sort.Slice(ma, func(i, j int) bool { return ma[i].Name < ma[j].Name })
	sort.Slice(oa, func(i, j int) bool { return oa[i].Name < oa[j].Name })
	for i := range ma {
		if !actionsEqual(ma[i], oa[i]) {
			return false
		}
	}
	for i := range m.Rules {
		if !rulesEqual(m.Rules[i], o.Rules[i]) {
			return false
		}
	}
	return true
}

// randomMAT draws a valid MAT over small pools of fields, actions and
// values, so independently drawn MATs are sometimes equivalent.
func randomMAT(rng *rand.Rand, name string) *MAT {
	pool := []fields.Field{
		fields.Header("ipv4.srcAddr", 32), fields.Header("ipv4.dstAddr", 32),
		fields.Header("tcp.dstPort", 16), fields.Metadata("meta.idx", 32),
		fields.Metadata("meta.flag", 8),
	}
	m := &MAT{Name: name, Capacity: 1 + rng.Intn(2)}
	for _, i := range rng.Perm(len(pool))[:rng.Intn(4)] {
		m.Keys = append(m.Keys, MatchKey{Field: pool[i], Type: MatchType(1 + rng.Intn(2))})
	}
	for _, i := range rng.Perm(4)[:1+rng.Intn(3)] {
		a := Action{Name: fmt.Sprintf("a%d", i)}
		for range rng.Intn(3) {
			a.Ops = append(a.Ops, SetOp(pool[rng.Intn(len(pool))], uint64(rng.Intn(2))))
		}
		m.Actions = append(m.Actions, a)
	}
	if rng.Intn(2) == 0 {
		m.DefaultAction = m.Actions[0].Name
	}
	if m.Capacity > 1 && rng.Intn(2) == 0 {
		m.Rules = []Rule{{Priority: rng.Intn(2), Action: m.Actions[rng.Intn(len(m.Actions))].Name}}
	}
	return m
}

// shuffled returns a copy of m under another name with its keys and
// actions permuted.
func shuffled(rng *rand.Rand, m *MAT) *MAT {
	c := cloneMAT(m)
	c.Name = m.Name + "'"
	rng.Shuffle(len(c.Keys), func(i, j int) { c.Keys[i], c.Keys[j] = c.Keys[j], c.Keys[i] })
	rng.Shuffle(len(c.Actions), func(i, j int) { c.Actions[i], c.Actions[j] = c.Actions[j], c.Actions[i] })
	return c
}

// TestEquivalentMatchesSortedReference holds the allocation-free
// Equivalent to the copy-and-sort reference on random pairs, on
// shuffled copies, and on shuffled copies with one property changed.
func TestEquivalentMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mutations := []func(m *MAT){
		func(m *MAT) { m.Capacity++ },
		func(m *MAT) { m.FixedRequirement = 0.5 },
		func(m *MAT) { m.Keys = m.Keys[:len(m.Keys)/2] },
		func(m *MAT) {
			if len(m.Keys) > 0 {
				m.Keys[0].Type = MatchTernary
			}
		},
		func(m *MAT) {
			if len(m.Keys) > 0 {
				m.Keys[0].Field.Bits++
			}
		},
		func(m *MAT) { m.Actions[0].Name = "renamed" },
		func(m *MAT) { m.Actions[0].Ops = append(m.Actions[0].Ops, DecOp(fields.Header("ipv4.ttl", 8), 1)) },
		func(m *MAT) {
			if ops := m.Actions[0].Ops; len(ops) > 1 {
				ops[0], ops[1] = ops[1], ops[0]
			}
		},
		func(m *MAT) {
			if len(m.Rules) > 0 {
				m.Rules[0].Priority += 5
			}
		},
	}
	equal, checked := 0, 0
	check := func(a, b *MAT) {
		t.Helper()
		want := equivalentRef(a, b)
		if got := a.Equivalent(b); got != want {
			t.Fatalf("Equivalent(%+v, %+v) = %v, reference %v", *a, *b, got, want)
		}
		checked++
		if want {
			equal++
		}
	}
	var mats []*MAT
	for i := range 200 {
		mats = append(mats, randomMAT(rng, fmt.Sprintf("t%d", i)))
	}
	for _, a := range mats {
		for _, b := range mats {
			check(a, b)
		}
		s := shuffled(rng, a)
		check(a, s)
		check(s, a)
		for _, mutate := range mutations {
			c := shuffled(rng, a)
			mutate(c)
			check(a, c)
			check(c, a)
		}
	}
	// Each MAT against itself and its shuffled copy both ways.
	if equal < 3*len(mats) {
		t.Fatalf("only %d of %d pairs equivalent: the generator misses the equal side", equal, checked)
	}
}

// TestEquivalentDoesNotAllocate pins Equivalent at zero allocations on
// a pair whose keys and actions are listed in different orders, the
// path the copy-and-sort version allocated four slices on.
func TestEquivalentDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMAT(rng, "t")
	for len(m.Keys) < 3 || len(m.Actions) < 2 {
		m = randomMAT(rng, "t")
	}
	o := cloneMAT(m)
	o.Keys[0], o.Keys[2] = o.Keys[2], o.Keys[0]
	o.Actions[0], o.Actions[1] = o.Actions[1], o.Actions[0]
	if !m.Equivalent(o) {
		t.Fatal("fixture: the permuted copy must be Equivalent")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Equivalent(o) }); allocs != 0 {
		t.Fatalf("Equivalent made %.0f allocations, want 0", allocs)
	}
}
