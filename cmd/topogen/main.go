// Command topogen generates and inspects the evaluation topologies.
//
//	topogen -table3           # print the ten Table III WANs
//	topogen -spec linear:5    # summarize one topology
//	topogen -spec fattree:4 -dot  # Graphviz output
//	topogen -spec composite:30 -partition 4  # region partition text form
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/hermes-net/hermes/internal/network"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	table3 := fs.Bool("table3", false, "print the ten Table III topologies")
	spec := fs.String("spec", "", "generate one topology (linear:N, fattree:K, table3:I, wan:N,E, composite:R)")
	seed := fs.Int64("seed", 1, "generator seed")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	partition := fs.Int("partition", 0, "partition the topology into K regions and print the text form")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *table3 {
		fmt.Printf("%-4s %-8s %-8s %-14s %-10s\n", "id", "nodes", "edges", "programmable", "diameter")
		for i := 1; i <= network.NumTableIII(); i++ {
			tp, err := network.TableIII(i, network.TofinoSpec())
			if err != nil {
				return err
			}
			wantN, wantE, err := network.TableIIISize(i)
			if err != nil {
				return err
			}
			note := ""
			if tp.NumLinks() != wantE {
				note = fmt.Sprintf(" (paper lists %d edges; raised to stay connected)", wantE)
			}
			fmt.Printf("%-4d %-8d %-8d %-14d %-10d%s\n",
				i, tp.NumSwitches(), tp.NumLinks(),
				len(tp.ProgrammableSwitches()), diameter(tp), note)
			_ = wantN
		}
		return nil
	}

	if *spec == "" {
		return fmt.Errorf("pass -table3 or -spec")
	}
	tp, err := buildSpec(*spec, *seed)
	if err != nil {
		return err
	}
	if *partition > 0 {
		p, err := network.PartitionRegions(tp, *partition, *seed)
		if err != nil {
			return err
		}
		fmt.Print(p.Format())
		return nil
	}
	if *dot {
		fmt.Print(dotGraph(tp))
		return nil
	}
	fmt.Printf("topology %s: %d switches (%d programmable), %d links, diameter %d hops\n",
		tp.Name, tp.NumSwitches(), len(tp.ProgrammableSwitches()), tp.NumLinks(), diameter(tp))
	return nil
}

func buildSpec(spec string, seed int64) (*network.Topology, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("spec %q: want kind:arg", spec)
	}
	switch kind {
	case "linear":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, err
		}
		return network.Linear(n, network.TestbedSpec())
	case "fattree":
		k, err := strconv.Atoi(arg)
		if err != nil {
			return nil, err
		}
		return network.FatTree(k, network.TofinoSpec(), seed)
	case "table3":
		i, err := strconv.Atoi(arg)
		if err != nil {
			return nil, err
		}
		return network.TableIII(i, network.TofinoSpec())
	case "wan":
		parts := strings.Split(arg, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("spec %q: want wan:NODES,EDGES", spec)
		}
		nodes, err1 := strconv.Atoi(parts[0])
		edges, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("spec %q: bad sizes", spec)
		}
		return network.RandomWAN("wan", nodes, edges, network.TofinoSpec(), seed)
	case "composite":
		r, err := strconv.Atoi(arg)
		if err != nil {
			return nil, err
		}
		return network.CompositeWAN(r, network.TofinoSpec(), seed)
	default:
		return nil, fmt.Errorf("unknown topology kind %q", kind)
	}
}

// diameter computes the hop-count diameter via BFS from every node.
func diameter(tp *network.Topology) int {
	n := tp.NumSwitches()
	max := 0
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []network.SwitchID{network.SwitchID(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range tp.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if dist[v] > max {
						max = dist[v]
					}
					queue = append(queue, v)
				}
			}
		}
	}
	return max
}

func dotGraph(tp *network.Topology) string {
	var b strings.Builder
	b.WriteString("graph topo {\n")
	for _, s := range tp.Switches() {
		shape := "circle"
		if s.Programmable {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %d [shape=%s label=%q];\n", s.ID, shape, s.Name)
	}
	for _, l := range tp.Links() {
		fmt.Fprintf(&b, "  %d -- %d [label=%q];\n", l.A, l.B, l.Latency.String())
	}
	b.WriteString("}\n")
	return b.String()
}
