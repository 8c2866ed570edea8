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

// ReadGraph parses a graph in the METIS ASCII format:
//
//	% comment lines start with a percent sign
//	<n> <m> [fmt [ncon]]
//	<vertex line> × n
//
// where fmt is up to three digits — 1: edges carry weights, 10: vertices
// carry ncon weights, 100: vertices carry sizes (accepted and ignored) — and
// each vertex line is
//
//	[size] [w_1 ... w_ncon] v_1 [ew_1] v_2 [ew_2] ...
//
// with 1-based neighbor indices. Unweighted edges and vertices default to
// weight 1. It loads testdata/*.graph for the refine tests and is
// FuzzReadGraph's target; the partitioner itself reads no file format.
func ReadGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("partition: read graph header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 4 {
		return nil, fmt.Errorf("partition: malformed header %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("partition: bad vertex count %q", fields[0])
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("partition: bad edge count %q", fields[1])
	}
	hasVSize, hasVWgt, hasEWgt := false, false, false
	ncon := 1
	if len(fields) >= 3 {
		code := fields[2]
		for len(code) < 3 {
			code = "0" + code
		}
		if len(code) != 3 || strings.Trim(code, "01") != "" {
			return nil, fmt.Errorf("partition: bad fmt code %q", fields[2])
		}
		hasVSize = code[0] == '1'
		hasVWgt = code[1] == '1'
		hasEWgt = code[2] == '1'
	}
	if len(fields) == 4 {
		ncon, err = strconv.Atoi(fields[3])
		if err != nil || ncon < 1 {
			return nil, fmt.Errorf("partition: bad ncon %q", fields[3])
		}
		hasVWgt = true
	}

	g := NewGraph(n, ncon)
	edgeHalves := 0
	for v := 0; v < n; v++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("partition: vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVSize {
			if i >= len(toks) {
				return nil, fmt.Errorf("partition: vertex %d: missing size", v+1)
			}
			i++ // size accepted and ignored
		}
		if hasVWgt {
			if i+ncon > len(toks) {
				return nil, fmt.Errorf("partition: vertex %d: expected %d vertex weights", v+1, ncon)
			}
			for c := 0; c < ncon; c++ {
				w, err := strconv.ParseInt(toks[i], 10, 64)
				if err != nil || w < 0 {
					return nil, fmt.Errorf("partition: vertex %d: bad weight %q", v+1, toks[i])
				}
				g.VWgt[v][c] = w
				i++
			}
		}
		for i < len(toks) {
			u, err := strconv.Atoi(toks[i])
			if err != nil || u < 1 || u > n {
				return nil, fmt.Errorf("partition: vertex %d: bad neighbor %q", v+1, toks[i])
			}
			i++
			var w int64 = 1
			if hasEWgt {
				if i >= len(toks) {
					return nil, fmt.Errorf("partition: vertex %d: neighbor %d missing edge weight", v+1, u)
				}
				w, err = strconv.ParseInt(toks[i], 10, 64)
				if err != nil || w < 0 {
					return nil, fmt.Errorf("partition: vertex %d: bad edge weight %q", v+1, toks[i])
				}
				i++
			}
			edgeHalves++
			if u-1 == v {
				continue // self loop: drop, as METIS does
			}
			// The file stores each undirected edge twice; add once from the
			// lower-numbered side to avoid doubling weights.
			if v < u-1 {
				g.AddEdge(v, u-1, w)
			}
		}
	}
	if edgeHalves != 2*m {
		return nil, fmt.Errorf("partition: header declares %d edges, found %d half-edges", m, edgeHalves)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// nextDataLine returns the next line that is neither blank nor a comment.
func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
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
