package mapping

import (
	"testing"

	"repro/internal/topogen"
)

// benchmarkMap times one mapping approach on the Brite golden input (k = 8),
// the instance the bench's map_brite_profile workload partitions.
func benchmarkMap(b *testing.B, mapFn func(Input) ([]int, error)) {
	nw, err := topogen.ByName("Brite", 42)
	if err != nil {
		b.Fatal(err)
	}
	in := goldenInput(b, nw, 8, 42)
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
}

func BenchmarkTopMap(b *testing.B)     { benchmarkMap(b, TopMap) }
func BenchmarkProfileMap(b *testing.B) { benchmarkMap(b, ProfileMap) }
