// Command netflow inspects NetFlow dump files produced by the emulator's
// profiling mode (§3.3): it parses the per-router flow records and prints
// the aggregated per-node and per-link traffic the PROFILE mapping consumes.
//
// Usage:
//
//	netflow [-top 10] dump.flows
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/netflow"
)

func main() {
	top := flag.Int("top", 10, "how many of the busiest links/nodes to print (>= 0)")
	flag.Parse()
	if flag.NArg() != 1 || *top < 0 {
		fmt.Fprintln(os.Stderr, "usage: netflow [-top N] dump.flows")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	records, err := netflow.ReadDump(f)
	if err != nil {
		fatal(err)
	}
	maxNode := 0
	var first, last float64
	for i, r := range records {
		if r.Node > maxNode {
			maxNode = r.Node
		}
		if i == 0 || r.First < first {
			first = r.First
		}
		if r.Last > last {
			last = r.Last
		}
	}
	// Totals only: nothing below reads the load series, so it gets one bucket
	// however long the dump claims the run was.
	sum := netflow.SummarizeRecords(records, maxNode+1, 0, 2)

	var totalPackets int64
	for _, p := range sum.NodePackets {
		totalPackets += p
	}
	fmt.Printf("records: %d   nodes: %d   span: %.1fs - %.1fs   kernel events: %d\n",
		len(records), maxNode+1, first, last, totalPackets)

	fmt.Printf("\nbusiest links (by packets):\n")
	for _, l := range sum.TopLinks(*top) {
		fmt.Printf("  link %-6d %12d\n", l, sum.LinkPackets[l])
	}

	fmt.Printf("\nbusiest nodes (by kernel events):\n")
	type np struct {
		node    int
		packets int64
	}
	nodes := make([]np, 0, len(sum.NodePackets))
	for n, p := range sum.NodePackets {
		nodes = append(nodes, np{n, p})
	}
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].packets > nodes[j].packets })
	n := *top
	if n > len(nodes) {
		n = len(nodes)
	}
	for _, e := range nodes[:n] {
		fmt.Printf("  node %-6d %12d\n", e.node, e.packets)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netflow:", err)
	os.Exit(1)
}
