// Package racetest tells a test whether its binary runs under the race
// detector. The detector's runtime allocates and grows scratch in steps
// of its own, so allocation ceilings skip under it, and tests sized by
// wall time shrink their inputs; they all ask here. Only _test.go files
// import it (hermeslint HV010).
package racetest

import "runtime/debug"

// Enabled reports whether the binary was built with -race.
func Enabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
