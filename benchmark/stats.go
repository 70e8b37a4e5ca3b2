package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// samples. It refuses a quantile with at most one sample expected
// beyond it (p90 of fewer than 11 samples): the value would be the
// maximum under another name.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	if float64(n)*(1-p) < 1+1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has no tail beyond it", 100*p, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(n)-1e-9))-1], nil
}

// median is the lower middle sample; unlike percentile it accepts any
// non-empty input, because a phase of two ops still has a median.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// percentileOrMax is percentile with the fallback the smoke path
// needs: when too few samples support the quantile it returns their
// maximum and ok=false so the caller can flag the row.
func percentileOrMax(samples []float64, p float64) (v float64, ok bool) {
	if v, err := percentile(samples, p); err == nil {
		return v, true
	}
	for _, x := range samples {
		v = math.Max(v, x)
	}
	return v, false
}

// relSpread is (max − min) ÷ median of the values: the run-to-run
// disagreement the self-agreement mode holds against a metric's bound.
func relSpread(values []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(values)
	if m == 0 {
		if hi == lo {
			return 0
		}
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
