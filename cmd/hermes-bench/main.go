// Command hermes-bench regenerates the paper's evaluation — and this
// repo's own Exp#7–#12 and kernel benchmarks — as text tables, optional
// CSV, and machine-readable baselines:
//
//	hermes-bench -exp all -csv results                # the paper's figures plus Exp#7/#8, with CSVs
//	hermes-bench -exp core -smoke                     # machine-independent in-run gates
//	hermes-bench -exp core -json BENCH_core.json      # (re)generate the committed baseline
//	hermes-bench -exp core -compare BENCH_core.json   # fail on a regression against it
//
// Every experiment is a value in the registry below (driver.go: what a
// value declares, what each mode does with it); an unknown -exp lists
// them with their modes. Exp#1, Exp#2 and Exp#5 give every Optimal
// cell up to -deadline of wall clock.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/hermes-net/hermes/internal/experiments"
)

// registry is every -exp value, in the order -exp all and the usage
// text list them.
var registry = []*experiment{
	&fig2Exp, &exp1Exp, &exp2Exp, &exp3Exp, &exp4Exp, &exp5Exp, &exp6Exp,
	&replanExp, &surviveExp, &trafficExp, &shardExp, &regionReplanExp, &rolloutExp,
	&coreExp, &equivExp,
}

// usage lists the registered experiments, with their modes when asked.
func usage(withModes bool) string {
	parts := make([]string, len(registry))
	for i, e := range registry {
		parts[i] = e.name
		if withModes {
			parts[i] += " (" + strings.Join(e.modes(), ", ") + ")"
		}
	}
	return strings.Join(parts, ", ")
}

// selectExperiments resolves the -exp value against the registry.
func selectExperiments(spec string) ([]*experiment, error) {
	var todo []*experiment
	if spec == "all" {
		for _, e := range registry {
			if e.all {
				todo = append(todo, e)
			}
		}
		return todo, nil
	}
next:
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		for _, e := range registry {
			if e.name == name {
				todo = append(todo, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown experiment %q; registered: %s", name, usage(true))
	}
	return todo, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hermes-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiments: "+usage(false)+", all")
	programs := fs.Int("programs", 50, "concurrent programs for exp2-4, replan and core")
	deadline := fs.Duration("deadline", 3*time.Second, "per-instance deadline of the Optimal (exact) solver; a run it stops unproven is reported capped")
	seed := fs.Int64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "concurrent experiment cells and solver parallelism (0 = GOMAXPROCS)")
	csvDir := fs.String("csv", "", "also write one CSV per table into this directory")
	jsonPath := fs.String("json", "", "write the experiment's baseline (BENCH_<exp>.json) to this path")
	comparePath := fs.String("compare", "", "diff the run against this baseline by column kind, failing on a regression")
	smoke := fs.Bool("smoke", false, "run the small sweep and enforce the experiment's machine-independent checks")
	full := fs.Bool("full", false, "with -exp shard/regionreplan: include the largest sweep point (minutes of runtime)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the selected experiments to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	todo, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	o, chosen := options{csvDir: *csvDir}, 0
	if *smoke {
		o.mode, chosen = "smoke", chosen+1
	}
	if *jsonPath != "" {
		o.mode, o.path, chosen = "json", *jsonPath, chosen+1
	}
	if *comparePath != "" {
		o.mode, o.path, chosen = "compare", *comparePath, chosen+1
	}
	if chosen > 1 {
		return fmt.Errorf("-smoke, -json and -compare are separate modes; choose one")
	}
	if o.mode != "" {
		if o.mode != "smoke" && len(todo) > 1 {
			return fmt.Errorf("-%s takes one experiment, -exp selects %d", o.mode, len(todo))
		}
		for _, e := range todo {
			if modes := strings.Join(e.modes(), ", "); !strings.Contains(modes, o.mode) {
				what := "baseline"
				if o.mode == "smoke" {
					what = "smoke gate"
				}
				return fmt.Errorf("%s has no %s; modes: %s", e.name, what, modes)
			}
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.SolverDeadline = *deadline
	cfg.Workers = *workers

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx := &runCtx{cfg: cfg, programs: *programs, smoke: *smoke, full: *full && !*smoke}
	for _, e := range todo {
		if err := e.execute(ctx, o); err != nil {
			return err
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("creating mem profile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("writing mem profile: %w", err)
		}
	}
	return nil
}
