// Command benchmark is the repository's whole-lifecycle benchmark:
// deploy → gated deploy → heal → replay over four workloads, measured
// end to end by an untraced pass and layer by layer by a traced pass.
// README.md explains the metrics, the workloads and how to read the
// output; BENCHMARK.json at the repository root declares them to the
// driver.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int // 0 untraced pass, 1 traced pass, -1 both
	traceFile string
	repeat    int
	smoke     bool
}

// report is one workload run; its JSON form is the last line of
// standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (wan30, composite60, real_hotspot, churn16); empty runs all four, each in its own process")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request streams: replay traffic, drain order, check packets")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "how long the untraced pass measures; the traced pass takes a quarter of it")
	fs.IntVar(&cfg.trace, "trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	fs.StringVar(&cfg.traceFile, "trace-file", "", "write the traced pass's spans to this file as JSON (a workload name is appended when several run)")
	fs.IntVar(&cfg.repeat, "repeat", 1, "run the whole set this many times and check the runs agree within each metric's bound")
	fs.BoolVar(&cfg.smoke, "smoke", false, "2–3 ops per phase on shrunken inputs, in-process: the path go test runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || cfg.repeat < 1 || cfg.trace < -1 || cfg.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	} else if specByName(cfg.workload) == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}

	// One workload runs in this process; several each get their own, so
	// peak memory is per workload. Smoke runs are small enough to share.
	inProcess := len(names) == 1 && cfg.repeat == 1 || cfg.smoke
	runs := make([]map[string]*report, cfg.repeat)
	ok := true
	for k := range runs {
		runs[k] = map[string]*report{}
		for _, name := range names {
			var rep *report
			var err error
			if inProcess {
				c := cfg
				c.workload = name
				if len(names) > 1 && c.traceFile != "" {
					c.traceFile += "." + name
				}
				rep, err = runWorkload(c, stdout, stderr)
			} else {
				rep, err = runChild(cfg, name, stdout, stderr)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			runs[k][name] = rep
			ok = ok && rep.Correct
		}
	}
	if cfg.repeat > 1 {
		ok = agreement(stdout, names, runs) && ok
	}
	if len(names) > 1 || cfg.repeat > 1 {
		// The aggregate line of a multi-workload run; a single-workload
		// run's last line is its own report.
		total := report{Correct: ok, Metrics: map[string]metricValue{}}
		for _, byName := range runs {
			for _, rep := range byName {
				total.Attempted += rep.Attempted
				total.Failed += rep.Failed
			}
		}
		writeJSONLine(stdout, total)
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload's passes in this process, prints its
// table, and ends with the report line.
func runWorkload(cfg config, stdout, stderr io.Writer) (*report, error) {
	h := &harness{sp: specByName(cfg.workload), cfg: cfg}
	rep := &report{Metrics: map[string]metricValue{}}
	start := time.Now()
	fmt.Fprintf(stdout, "== %s  seed=%d  seconds=%g  workers=%d  closed loop, one client%s\n",
		cfg.workload, cfg.seed, cfg.seconds, workers, map[bool]string{true: "  (smoke)"}[cfg.smoke])
	if cfg.trace != 1 {
		res, err := h.runTimed()
		if err != nil {
			return nil, err
		}
		for k, v := range res.metrics(&h.tally) {
			rep.Metrics[k] = v
		}
		printMetrics(stdout, "end-to-end (untraced pass)", endToEnd, rep.Metrics)
		fmt.Fprintf(stdout, "  %-30s %14.6f  (%d of %d ops failed)\n", "failed_share",
			float64(h.tally.failed)/float64(max(h.tally.attempted, 1)), h.tally.failed, h.tally.attempted)
	}
	if cfg.trace != 0 {
		metrics, rec, err := h.runTraced()
		if err != nil {
			return nil, err
		}
		for k, v := range metrics {
			rep.Metrics[k] = v
		}
		printMetrics(stdout, "per-layer (traced pass)", perLayer, rep.Metrics)
		fmt.Fprintf(stdout, "  layer self time (span minus its child spans), mean ms per span:\n")
		for _, row := range rec.selfTimes() {
			fmt.Fprintf(stdout, "    %-28s %12.4f  n=%d\n", row.Name, row.SelfMS, row.Spans)
		}
		if cfg.traceFile != "" {
			if err := rec.writeFile(cfg.traceFile); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "  %d spans written to %s\n", len(rec.spans), cfg.traceFile)
		}
	}
	for _, n := range h.tally.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, e := range h.tally.errs {
		fmt.Fprintf(stderr, "benchmark: %s: FAILED %s\n", cfg.workload, e)
	}
	rep.Attempted, rep.Failed = h.tally.attempted, h.tally.failed
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(stdout, "  wall %.1fs\n", time.Since(start).Seconds())
	writeJSONLine(stdout, rep)
	return rep, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]metricValue) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		v := values[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s%s\n", d.Name, v.Value, v.Unit, n)
	}
}

func writeJSONLine(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // reports hold only numbers and strings
	}
	fmt.Fprintf(w, "%s\n", data)
}

// runChild re-executes this binary for one workload, passes its output
// through, and parses the report off its last line.
func runChild(cfg config, name string, stdout, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(cfg.trace),
	}
	if cfg.traceFile != "" {
		args = append(args, "-trace-file", cfg.traceFile+"."+name)
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	runErr := cmd.Run() // a failed check exits 1 after printing its report
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	rep := &report{}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return nil, fmt.Errorf("no report (%v): %w", runErr, err)
	}
	return rep, nil
}

// agreement prints, per workload and end-to-end metric, the repeated
// runs' values, their relative spread, the bound, and PASS/FAIL.
// Timings and allocation counts must agree within the metric's bound;
// deterministic metrics — end-to-end or per-layer — must be equal.
func agreement(w io.Writer, names []string, runs []map[string]*report) bool {
	ok := true
	fmt.Fprintf(w, "== self-agreement over %d runs\n", len(runs))
	for _, name := range names {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				var vals []float64
				for _, byName := range runs {
					if v, present := byName[name].Metrics[d.Name]; present {
						vals = append(vals, v.Value)
					}
				}
				if len(vals) < 2 || d.Kind != kindCount && d.Bound == 0 {
					continue // not measured in this mode, or a per-layer timing (no bound)
				}
				spread, bound := relSpread(vals), d.Bound
				if d.Kind == kindCount {
					bound = 0
				}
				verdict := "PASS"
				if spread > bound {
					verdict, ok = "FAIL", false
				}
				fmt.Fprintf(w, "  %-13s %-30s %v  spread %.4f  bound %.2f  %s\n", name, d.Name, vals, spread, bound, verdict)
			}
		}
	}
	return ok
}
