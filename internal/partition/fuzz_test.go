package partition

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadGraph: the METIS parser must never panic, and accepted graphs must
// validate and round-trip.
func FuzzReadGraph(f *testing.F) {
	f.Add("5 6\n2 3\n1 3 4\n1 2 5\n2 5\n3 4\n")
	f.Add("3 2 011 2\n5 7 2 9\n1 3 1 9 3 4\n2 2 2 4\n")
	f.Add("0 0\n")
	f.Add("1 0 10\n3\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadGraph(strings.NewReader(in))
		if err != nil {
			return
		}
		if err = g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err = WriteGraph(&buf, g); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		back, err := ReadGraph(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed shape")
		}
	})
}
