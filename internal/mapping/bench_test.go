package mapping

import (
	"testing"

	"repro/internal/topogen"
)

// benchmarkMap times one mapping approach on the golden input of each paper
// topology at its engine count: Brite (k = 8) is the instance the bench's
// map_brite_profile workload partitions, TeraGrid (k = 5) and Campus (k = 3)
// the other two.
func benchmarkMap(b *testing.B, mapFn func(Input) ([]int, error)) {
	for _, spec := range topogen.Table1() {
		b.Run(spec.Name, func(b *testing.B) {
			nw, err := topogen.ByName(spec.Name, 42)
			if err != nil {
				b.Fatal(err)
			}
			in := goldenInput(b, nw, spec.Engines, 42)
			if _, err := mapFn(in); err != nil { // warm what the network caches lazily
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapFn(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopMap(b *testing.B)     { benchmarkMap(b, TopMap) }
func BenchmarkProfileMap(b *testing.B) { benchmarkMap(b, ProfileMap) }
