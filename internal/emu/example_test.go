package emu_test

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/netgraph"
	"repro/internal/traffic"
)

// Example emulates one flow across a two-engine partition and reports the
// kernel-event load balance.
func Example() {
	nw := netgraph.New("demo")
	h0 := nw.AddHost("h0", 1)
	r0 := nw.AddRouter("r0", 1)
	r1 := nw.AddRouter("r1", 1)
	h1 := nw.AddHost("h1", 1)
	nw.AddLink(h0, r0, 100e6, 1e-3)
	nw.AddLink(r0, r1, 1e9, 1e-3)
	nw.AddLink(r1, h1, 100e6, 1e-3)

	res, err := emu.Run(emu.Config{
		Network:    nw,
		Assignment: []int{0, 0, 1, 1}, // cut the middle link
		NumEngines: 2,
		Workload: traffic.Workload{
			Flows:    []traffic.Flow{{Src: h0, Dst: h1, Bytes: 3000}},
			Duration: 1,
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("kernel events:", res.Kernel.TotalCharges())
	fmt.Println("engine loads:", res.EngineLoads)
	fmt.Printf("lookahead: %.0fms\n", res.Lookahead*1e3)
	// Output:
	// kernel events: 8
	// engine loads: [4 4]
	// lookahead: 1ms
}
