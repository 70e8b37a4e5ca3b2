package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// runCaptured runs the CLI with args and returns what it printed.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("hermes %v: %v\n%s", args, runErr, printed)
	}
	return printed
}

// TestSuperviseIgnoresDeadline is the self-expiring deadline
// regression: the supervisor reuses its replan options for every solve
// of the session, so a -deadline stamped once at startup would cut
// every later polish short. A supervised deployment must not depend on
// -deadline at all.
func TestSuperviseIgnoresDeadline(t *testing.T) {
	amax := regexp.MustCompile(`A_max=(\d+)B`)
	deploy := func(deadline string) string {
		out := runCaptured(t, "-workload", "mixed:30", "-topology", "table3:1",
			"-supervise", "-fault-schedule", "rand:2", "-deadline", deadline)
		m := amax.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-deadline %s: no A_max in output:\n%s", deadline, out)
		}
		return m[1]
	}
	uncapped, expired := deploy("0"), deploy("1ns")
	if expired != uncapped {
		t.Errorf("-supervise -deadline 1ns deployed at A_max %sB, -deadline 0 at %sB", expired, uncapped)
	}
}
