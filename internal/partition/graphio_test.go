package partition

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestReadGraphUnweighted(t *testing.T) {
	// The METIS manual's example style: 5 vertices, 6 edges, no weights.
	in := `% a comment
5 6
2 3
1 3 4
1 2 5
2 5
3 4
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 6 {
		t.Fatalf("got %d vertices %d edges, want 5/6", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 1 {
		t.Errorf("edge 0-1 = %d,%v, want 1,true", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReadGraphWeighted(t *testing.T) {
	in := `3 2 011 2
5 7 2 9
1 3 1 9 3 4
2 2 2 4
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Ncon != 2 {
		t.Fatalf("Ncon = %d, want 2", g.Ncon)
	}
	if g.VWgt[0][0] != 5 || g.VWgt[0][1] != 7 {
		t.Errorf("VWgt[0] = %v, want [5 7]", g.VWgt[0])
	}
	if w, _ := g.EdgeWeight(0, 1); w != 9 {
		t.Errorf("edge 0-1 weight = %d, want 9", w)
	}
	if w, _ := g.EdgeWeight(1, 2); w != 4 {
		t.Errorf("edge 1-2 weight = %d, want 4", w)
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"badHeader", "a b\n"},
		{"tooManyFields", "1 0 0 1 9\n"},
		{"badFmt", "2 1 019\n1 2\n2 1\n"},
		{"badNcon", "1 0 011 0\n1\n"},
		{"neighborRange", "2 1\n3\n1\n"},
		{"missingEdgeWeight", "2 1 001\n2\n1 5\n"},
		{"edgeCountMismatch", "3 5\n2\n1 3\n2\n"},
		{"truncated", "3 2\n2\n"},
		{"negativeVWgt", "1 0 010\n-3\n"},
	}
	for _, c := range cases {
		if _, err := ReadGraph(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := randomGraph(40, 60, 2, 13)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
	for v := range g.VWgt {
		for c := range g.VWgt[v] {
			if g.VWgt[v][c] != g2.VWgt[v][c] {
				t.Fatalf("vertex weight changed at %d/%d", v, c)
			}
		}
	}
	for u := range g.Adj {
		for _, e := range g.Adj[u] {
			w, ok := g2.EdgeWeight(u, e.To)
			if !ok || w != e.Wgt {
				t.Fatalf("edge %d-%d changed: %d -> %d (ok=%v)", u, e.To, e.Wgt, w, ok)
			}
		}
	}
}

func TestReadGraphSelfLoopDropped(t *testing.T) {
	// Vertex 1 lists itself; loop must be dropped silently (half-edge count
	// still includes it, so the header says 2 edges -> 4 halves: 1-1 twice
	// would be 2 halves... use explicit instance below).
	in := "2 2\n1 1 2\n1\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (self loop dropped)", g.NumEdges())
	}
}

// WriteGraph emits g in the METIS format accepted by ReadGraph, always with
// both vertex and edge weights (fmt code 011): the oracle TestGraphRoundTrip
// and FuzzReadGraph round-trip through.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d 011 %d\n", g.NumVertices(), g.NumEdges(), g.Ncon); err != nil {
		return err
	}
	for v := range g.Adj {
		var sb strings.Builder
		for c, x := range g.VWgt[v] {
			if c > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatInt(x, 10))
		}
		for _, e := range g.Adj[v] {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(e.To + 1))
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatInt(e.Wgt, 10))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
