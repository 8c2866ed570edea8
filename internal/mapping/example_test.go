package mapping_test

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/partition"
	"repro/internal/topogen"
)

// Example maps the Campus network onto three simulation engines with the
// topology-only approach and inspects the result.
func ExampleTopMap() {
	nw := topogen.Campus()
	part, err := mapping.TopMap(mapping.Input{
		Network:  nw,
		K:        3,
		PartOpts: partition.Options{Seed: 1},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("nodes assigned:", len(part))
	fmt.Println("valid:", partition.Verify(partition.NewGraph(nw.NumNodes(), 1), part, 3) == nil)
	// Output:
	// nodes assigned: 60
	// valid: true
}
