// Command hermes deploys data plane programs onto a network topology
// and reports the resulting plan: MAT placements, coordination
// headers, per-packet byte overhead, and end-to-end impact.
//
// Usage:
//
//	hermes -workload real:6 -topology linear:3 -solver hermes
//	hermes -workload synthetic:20 -topology table3:4 -solver all
//	hermes -workload sketches:10 -topology linear:3 -json
//	hermes -workload mixed:6 -topology table3:1 -stage-capacity 0.05 -supervise -fault-schedule rand:20
//	hermes -workload real:6 -topology table3:1 -traffic gravity:7 -traffic-objective sum
//	hermes -workload real:6 -topology table3:1 -traffic @matrix.txt
//	hermes lint -json examples/p4src/bad.p4
//	hermes equiv -workload real:6 -topology table3:1 -json
//
// Workloads:   real:N (N of the ten switch.p4-style programs),
//
//	synthetic:N, sketches:N, mixed:N (real + synthetic).
//
// Topologies:  linear:N, fattree:K, table3:I (paper Table III),
//
//	wan:NODES,EDGES.
//
// Solvers:     hermes, optimal, ms, sonata, speed, mtp, fp,
//
//	p4all, ffl, ffls, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/baseline"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/placement"
	programPkg "github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hermes:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "lint" {
		return runLint(args[1:])
	}
	if len(args) > 0 && args[0] == "equiv" {
		return runEquiv(args[1:])
	}
	fs := flag.NewFlagSet("hermes", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "real:4", "workload spec (real:N, synthetic:N, sketches:N, mixed:N, file:PATH, p4:FILE[,FILE...])")
	topoFlag := fs.String("topology", "linear:3", "topology spec (linear:N, fattree:K, table3:I, wan:N,E, composite:R)")
	solverFlag := fs.String("solver", "hermes", "solver (hermes, optimal, ms, sonata, speed, mtp, fp, p4all, ffl, ffls, all)")
	eps1 := fs.Duration("eps1", 0, "ε1: bound on end-to-end coordination latency (0 = unbounded)")
	eps2 := fs.Int("eps2", 0, "ε2: bound on occupied switches (0 = unbounded)")
	seed := fs.Int64("seed", 1, "workload/topology seed")
	capacity := fs.Float64("stage-capacity", 0, "override per-stage capacity (0 = spec default)")
	deadline := fs.Duration("deadline", 30*time.Second, "solver deadline; optimal returns its best plan, unproven, when it hits it (ignored by -supervise, whose solves and replans run uncapped)")
	workers := fs.Int("workers", 0, "solver parallelism (0 = GOMAXPROCS); the plan is identical for every value")
	shards := fs.Int("shards", 0, "region-sharded placement: split the topology into this many regions solved concurrently (0 = whole-graph)")
	trafficFlag := fs.String("traffic", "", "traffic matrix for the weighted objective: model[:seed] (uniform, gravity, hotspot, elephants) or @file (Format text); empty = structural A_max objective")
	trafficObj := fs.String("traffic-objective", "sum", "weighted aggregate when -traffic is set: sum (Σ w·A) or max (hottest pair)")
	amaxSlack := fs.Float64("amax-slack", 0, "structural A_max inflation a weighted solve may accept, e.g. 1.2 (0 = default bound)")
	jsonOut := fs.Bool("json", false, "emit the plan as JSON")
	emitBundle := fs.String("emit-bundle", "", "write the resolved workload as a JSON bundle to this path and exit")
	verify := fs.Bool("verify", false, "drive packets through the deployment and check equivalence")
	report := fs.Bool("report", false, "print a per-switch operations report for each plan")
	savePlan := fs.String("save-plan", "", "write the first solver's plan as JSON to this path")
	drainFlag := fs.String("drain", "", "comma-separated switch IDs to drain after the solve, exercising the replan path")
	replanFlag := fs.String("replan", "auto", "replan strategy when -drain is set (auto, incremental, full)")
	rolloutFlag := fs.Bool("rollout", false, "adopt the -drain replan via the transactional make-before-break rollout and print the staged phase report")
	supervise := fs.Bool("supervise", false, "deploy under the fault-tolerant supervisor and drive -fault-schedule through it")
	faultSchedule := fs.String("fault-schedule", "rand:10", "fault schedule for -supervise: rand:N[,SEED] or a schedule file path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	progs, err := parseWorkload(*workloadFlag, *seed)
	if err != nil {
		return err
	}
	if *emitBundle != "" {
		data, err := programPkg.EncodeBundle(progs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*emitBundle, data, 0o644); err != nil {
			return fmt.Errorf("writing bundle: %w", err)
		}
		fmt.Printf("wrote %d programs to %s\n", len(progs), *emitBundle)
		return nil
	}
	topo, err := parseTopology(*topoFlag, *seed, *capacity)
	if err != nil {
		return err
	}
	solvers, err := parseSolvers(*solverFlag)
	if err != nil {
		return err
	}
	drained, err := parseDrain(*drainFlag)
	if err != nil {
		return err
	}
	traffic, err := parseTraffic(*trafficFlag, topo)
	if err != nil {
		return err
	}
	objective, err := placement.ParseTrafficObjective(*trafficObj)
	if err != nil {
		return err
	}
	replanMode, err := hermes.ParseReplanMode(*replanFlag)
	if err != nil {
		return err
	}

	fmt.Printf("workload: %s (%d programs), topology: %s (%d switches, %d programmable)\n",
		*workloadFlag, len(progs), topo.Name, topo.NumSwitches(), topo.NumProgrammable())

	if *supervise {
		// Shards flows into the supervisor's replan options, so it
		// auto-partitions the monitored topology and heals churn through
		// the region-local path.
		// No Deadline: the supervisor reuses its replan options for
		// every heal, so an absolute deadline stamped here would expire
		// for the whole session.
		popts := placement.Options{Epsilon1: *eps1, Epsilon2: *eps2, Workers: *workers, Shards: *shards}
		return runSupervised(progs, topo, solvers[0], *faultSchedule, *seed, popts)
	}

	for _, solver := range solvers {
		// -shards upgrades the Hermes heuristic to its region-sharded
		// variant; other solvers see the value via SolveOptions.Shards
		// and ignore it unless they have a sharded mode.
		if *shards > 1 {
			if _, ok := solver.(placement.Greedy); ok {
				solver = hermes.ShardedSolver{}
			}
		}
		res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{
			Solver:           solver,
			Epsilon1:         *eps1,
			Epsilon2:         *eps2,
			SolverDeadline:   *deadline,
			Workers:          *workers,
			Shards:           *shards,
			Traffic:          traffic,
			TrafficObjective: objective,
			AMaxSlack:        *amaxSlack,
		})
		if err != nil {
			fmt.Printf("%-8s failed: %v\n", solver.Name(), err)
			continue
		}
		if *jsonOut {
			if err := emitJSON(res); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%-8s header=%3dB A_max=%3dB cross=%4dB switches=%2d t_e2e=%-10v solve=%v\n",
			solver.Name(), res.Deployment.MaxHeaderBytes(), res.Plan.AMax(),
			res.Plan.TotalCrossBytes(), res.Plan.QOcc(), res.Plan.TE2E(), res.Plan.SolveTime)
		if traffic != nil {
			tr, err := hermes.ReplayTraffic(res.Deployment, traffic, 4096, 0, 0)
			if err != nil {
				fmt.Printf("         traffic replay failed: %v\n", err)
			} else {
				fmt.Printf("         traffic %s objective=%v: weighted-rate=%.1f hot-pair=%.1f goodput=%.0f pkts/s\n",
					*trafficFlag, objective, tr.WeightedByteRate, tr.HotPairByteRate, tr.Stats.PacketsPerSec)
			}
		}
		if *report {
			fmt.Println(res.Deployment.Report(programPkg.DefaultResourceModel))
		}
		if *savePlan != "" {
			data, err := res.Plan.EncodeJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*savePlan, data, 0o644); err != nil {
				return fmt.Errorf("writing plan: %w", err)
			}
			fmt.Printf("         plan saved to %s\n", *savePlan)
			*savePlan = "" // only the first solver's plan
		}
		if *verify {
			var pkts []*hermes.Packet
			for i := 0; i < 200; i++ {
				pkts = append(pkts, &hermes.Packet{Headers: map[string]uint64{
					"ipv4.srcAddr": uint64(i % 16), "ipv4.dstAddr": uint64(i % 4),
					"tcp.srcPort": uint64(i % 128), "tcp.dstPort": 80,
					"ipv4.ttl": 64, "ipv4.protocol": 6,
				}})
			}
			maxHdr, err := hermes.VerifyEquivalence(res.Deployment, pkts)
			if err != nil {
				fmt.Printf("         verification FAILED: %v\n", err)
				continue
			}
			fmt.Printf("         verified over %d packets; on-wire header %dB\n", len(pkts), maxHdr)
		}
		if len(drained) > 0 {
			ropts := hermes.ReplanOptions{
				Options: placement.Options{Epsilon1: *eps1, Epsilon2: *eps2, Workers: *workers, Shards: *shards},
				Mode:    replanMode,
			}
			// Under -shards, the replan reuses the solve-time region
			// structure: the dirty set maps onto the drained regions and
			// only those are repaired (DESIGN.md §14).
			if *shards > 1 {
				part, perr := hermes.PartitionTopology(topo, *shards, 1)
				if perr != nil {
					fmt.Printf("         replan partition failed (%v); using whole-topology repair\n", perr)
				} else {
					ropts.Partition = part
				}
			}
			if *rolloutFlag {
				// Replan + recompile, then adopt transactionally: stage
				// the new epoch next to the old, flip program groups
				// atomically, retire the old epoch — and print the
				// staged phase report.
				next, rep, err := hermes.Redeploy(res.Deployment, solver, ropts, hermes.AnalyzeOptions{}, drained...)
				if err != nil {
					fmt.Printf("         replan(%v) failed: %v\n", replanMode, err)
					continue
				}
				fmt.Printf("         replan(%v) drained %v in %v: moved %d MATs, A_max %dB -> %dB\n",
					replanMode, drained, rep.TotalTime, rep.MovedMATs, res.Plan.AMax(), next.Plan.AMax())
				rrep, err := hermes.ExecuteRollout(res.Deployment, next, hermes.RolloutOptions{Topo: topo})
				if rrep != nil {
					for _, line := range strings.Split(strings.TrimRight(rrep.String(), "\n"), "\n") {
						fmt.Println("         " + line)
					}
				}
				if err != nil {
					fmt.Printf("         rollout failed: %v\n", err)
				}
				continue
			}
			newPlan, rep, err := hermes.ReplanWithOptions(res.Plan, solver, ropts, drained...)
			if err != nil {
				fmt.Printf("         replan(%v) failed: %v\n", replanMode, err)
				continue
			}
			path := "full solve"
			if rep.UsedRegional {
				path = fmt.Sprintf("regional repair (%d dirty MATs, regions %v", rep.DirtyMATs, rep.RegionsTouched)
				if rep.RegionsWidened > 0 {
					path += fmt.Sprintf(", %d widened", rep.RegionsWidened)
				}
				if rep.ExchangeMoves > 0 {
					path += fmt.Sprintf(", reconcile moved %d in %d passes", rep.ExchangeMoves, rep.ExchangeRounds)
				}
				path += ")"
			} else if rep.UsedRepair {
				path = fmt.Sprintf("delta repair (%d dirty MATs)", rep.DirtyMATs)
			} else if rep.FallbackReason != "" {
				path = "fallback to full solve: " + rep.FallbackReason
			}
			fmt.Printf("         replan(%v) drained %v via %s in %v: moved %d MATs, A_max %dB -> %dB\n",
				replanMode, drained, path, rep.TotalTime, rep.MovedMATs, res.Plan.AMax(), newPlan.AMax())
		}
	}
	return nil
}

// parseTraffic resolves the -traffic flag: empty means no weighted
// objective, "@path" loads a Format text file, anything else is a
// "model[:seed]" spec.
func parseTraffic(spec string, topo *hermes.Topology) (*hermes.TrafficMatrix, error) {
	if spec == "" {
		return nil, nil
	}
	if path, ok := strings.CutPrefix(spec, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading traffic matrix: %w", err)
		}
		return hermes.ParseTraffic(string(data), topo)
	}
	return hermes.ParseTrafficSpec(spec, topo)
}

func parseDrain(spec string) ([]hermes.SwitchID, error) {
	if spec == "" {
		return nil, nil
	}
	var out []hermes.SwitchID
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("drain spec %q: bad switch ID %q", spec, part)
		}
		out = append(out, hermes.SwitchID(id))
	}
	return out, nil
}

func parseWorkload(spec string, seed int64) ([]*hermes.Program, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("workload spec %q: want kind:arg", spec)
	}
	n := 0
	if kind != "file" && kind != "p4" {
		var err error
		n, err = strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("workload spec %q: bad count", spec)
		}
	}
	switch kind {
	case "p4":
		var progs []*hermes.Program
		for _, path := range strings.Split(arg, ",") {
			data, err := os.ReadFile(strings.TrimSpace(path))
			if err != nil {
				return nil, fmt.Errorf("reading p4lite source: %w", err)
			}
			prog, err := p4lite.Parse(string(data))
			if err != nil {
				return nil, err
			}
			progs = append(progs, prog)
		}
		return progs, nil
	case "file":
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("reading workload bundle: %w", err)
		}
		return programPkg.DecodeBundle(data)
	case "real":
		real := workload.RealPrograms()
		if n > len(real) {
			return nil, fmt.Errorf("only %d real programs exist", len(real))
		}
		return real[:n], nil
	case "synthetic":
		return workload.SyntheticSet(n, workload.PaperSyntheticSpec(), seed)
	case "sketches":
		return workload.SketchSet(n, seed)
	case "mixed":
		return workload.EvaluationPrograms(n, seed)
	default:
		return nil, fmt.Errorf("unknown workload kind %q", kind)
	}
}

func parseTopology(spec string, seed int64, capacity float64) (*hermes.Topology, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topology spec %q: want kind:arg", spec)
	}
	sw := network.TofinoSpec()
	if kind == "linear" {
		sw = network.TestbedSpec()
	}
	if capacity > 0 {
		sw.StageCapacity = capacity
	}
	switch kind {
	case "linear":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topology spec %q: bad size", spec)
		}
		return network.Linear(n, sw)
	case "fattree":
		k, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topology spec %q: bad arity", spec)
		}
		return network.FatTree(k, sw, seed)
	case "table3":
		i, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topology spec %q: bad index", spec)
		}
		return network.TableIII(i, sw)
	case "wan":
		parts := strings.Split(arg, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("topology spec %q: want wan:NODES,EDGES", spec)
		}
		nodes, err1 := strconv.Atoi(parts[0])
		edges, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("topology spec %q: bad sizes", spec)
		}
		return network.RandomWAN("wan", nodes, edges, sw, seed)
	case "composite":
		r, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topology spec %q: bad region count", spec)
		}
		return network.CompositeWAN(r, sw, seed)
	default:
		return nil, fmt.Errorf("unknown topology kind %q", kind)
	}
}

func parseSolvers(spec string) ([]hermes.Solver, error) {
	mk := func(name string) (hermes.Solver, error) {
		switch name {
		case "hermes":
			return placement.Greedy{}, nil
		case "optimal":
			return placement.Exact{}, nil
		case "ms":
			return baseline.MinStage{}, nil
		case "sonata":
			return baseline.Sonata{}, nil
		case "speed":
			return baseline.SPEED{}, nil
		case "mtp":
			return baseline.MTP{}, nil
		case "fp":
			return baseline.Flightplan{}, nil
		case "p4all":
			return baseline.P4All{}, nil
		case "ffl":
			return baseline.FFL{}, nil
		case "ffls":
			return baseline.FFLS{}, nil
		default:
			return nil, fmt.Errorf("unknown solver %q", name)
		}
	}
	if spec == "all" {
		out := []hermes.Solver{placement.Greedy{}, placement.Exact{}}
		out = append(out, baseline.All()...)
		return out, nil
	}
	var out []hermes.Solver
	for _, name := range strings.Split(spec, ",") {
		s, err := mk(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// planJSON is the exported JSON shape.
type planJSON struct {
	Solver      string                    `json:"solver"`
	AMaxBytes   int                       `json:"a_max_bytes"`
	HeaderBytes int                       `json:"header_bytes"`
	Switches    int                       `json:"switches"`
	TE2E        string                    `json:"t_e2e"`
	Assignments map[string]assignmentJSON `json:"assignments"`
	Headers     map[string]headerJSON     `json:"headers"`
}

type assignmentJSON struct {
	Switch     int `json:"switch"`
	StartStage int `json:"start_stage"`
	EndStage   int `json:"end_stage"`
}

type headerJSON struct {
	Bytes  int      `json:"bytes"`
	Fields []string `json:"fields"`
}

func emitJSON(res *hermes.Result) error {
	out := planJSON{
		Solver:      res.Plan.SolverName,
		AMaxBytes:   res.Plan.AMax(),
		HeaderBytes: res.Deployment.MaxHeaderBytes(),
		Switches:    res.Plan.QOcc(),
		TE2E:        res.Plan.TE2E().String(),
		Assignments: map[string]assignmentJSON{},
		Headers:     map[string]headerJSON{},
	}
	for name, sp := range res.Plan.Assignments {
		out.Assignments[name] = assignmentJSON{
			Switch: int(sp.Switch), StartStage: sp.Start, EndStage: sp.End,
		}
	}
	for key, hdr := range res.Deployment.Headers {
		var names []string
		for _, f := range hdr.Fields {
			names = append(names, f.Name)
		}
		out.Headers[fmt.Sprintf("%d->%d", key.From, key.To)] = headerJSON{
			Bytes: hdr.Bytes, Fields: names,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
