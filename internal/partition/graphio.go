package partition

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

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
// weight 1.
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
