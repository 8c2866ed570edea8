// Package netdesc reads and writes a textual network description — the role
// of MaSSF's DML network description file (§2.2.1: "this information is
// stored in the network description file and can be easily translated to a
// vertex and adjacent edge graph").
//
// The format is line oriented:
//
//	# comment
//	network <name>
//	router <name> [as=<n>] [site=<label>]
//	host   <name> [as=<n>] [site=<label>]
//	link   <nameA> <nameB> bw=<rate> lat=<delay>
//
// Rates accept bps, Kbps, Mbps, Gbps suffixes; delays accept s, ms, us.
// Node names must be unique; links refer to nodes by name.
package netdesc

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/netgraph"
)

// Read parses a network description.
func Read(r io.Reader) (*netgraph.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	nw := netgraph.New("")
	byName := make(map[string]int)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "network":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netdesc: line %d: network takes one name", lineNo)
			}
			nw.Name = fields[1]
		case "router", "host":
			if len(fields) < 2 {
				return nil, fmt.Errorf("netdesc: line %d: %s needs a name", lineNo, fields[0])
			}
			name := fields[1]
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("netdesc: line %d: duplicate node %q", lineNo, name)
			}
			as := 1
			site := ""
			for _, opt := range fields[2:] {
				k, v, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, fmt.Errorf("netdesc: line %d: malformed option %q", lineNo, opt)
				}
				switch k {
				case "as":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("netdesc: line %d: bad as=%q", lineNo, v)
					}
					as = n
				case "site":
					site = v
				default:
					return nil, fmt.Errorf("netdesc: line %d: unknown option %q", lineNo, k)
				}
			}
			var id int
			if fields[0] == "router" {
				id = nw.AddRouter(name, as)
			} else {
				id = nw.AddHost(name, as)
			}
			if site != "" {
				nw.SetSite(id, site)
			}
			byName[name] = id
		case "link":
			if len(fields) != 5 {
				return nil, fmt.Errorf("netdesc: line %d: link <a> <b> bw=<rate> lat=<delay>", lineNo)
			}
			a, ok := byName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("netdesc: line %d: unknown node %q", lineNo, fields[1])
			}
			b, ok := byName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("netdesc: line %d: unknown node %q", lineNo, fields[2])
			}
			var bw, lat float64 = -1, -1
			for _, opt := range fields[3:] {
				k, v, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, fmt.Errorf("netdesc: line %d: malformed option %q", lineNo, opt)
				}
				var err error
				switch k {
				case "bw":
					bw, err = ParseRate(v)
				case "lat":
					lat, err = ParseDelay(v)
				default:
					err = fmt.Errorf("unknown option %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("netdesc: line %d: %v", lineNo, err)
				}
			}
			if bw <= 0 || lat < 0 {
				return nil, fmt.Errorf("netdesc: line %d: link needs bw= and lat=", lineNo)
			}
			nw.AddLink(a, b, bw, lat)
		default:
			return nil, fmt.Errorf("netdesc: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return nw, nil
}

// Write serializes nw in the format Read accepts. Node names must be unique
// (they are, for all generated topologies).
func Write(w io.Writer, nw *netgraph.Network) error {
	bw := bufio.NewWriter(w)
	if nw.Name != "" {
		fmt.Fprintf(bw, "network %s\n", nw.Name)
	}
	for _, n := range nw.Nodes {
		kind := "router"
		if n.Kind == netgraph.Host {
			kind = "host"
		}
		fmt.Fprintf(bw, "%s %s as=%d", kind, n.Name, n.AS)
		if n.Site != "" {
			fmt.Fprintf(bw, " site=%s", n.Site)
		}
		fmt.Fprintln(bw)
	}
	for _, l := range nw.Links {
		fmt.Fprintf(bw, "link %s %s bw=%s lat=%s\n",
			nw.Nodes[l.A].Name, nw.Nodes[l.B].Name,
			FormatRate(l.Bandwidth), FormatDelay(l.Latency))
	}
	return bw.Flush()
}

// ParseRate parses "100Mbps", "2.5Gbps", "64Kbps", "1500bps" into bits/s. The
// rate must be finite and positive: NaN and Inf parse as numbers but are not
// bandwidths.
func ParseRate(s string) (float64, error) {
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "Gbps"):
		mult, num = 1e9, strings.TrimSuffix(s, "Gbps")
	case strings.HasSuffix(s, "Mbps"):
		mult, num = 1e6, strings.TrimSuffix(s, "Mbps")
	case strings.HasSuffix(s, "Kbps"):
		mult, num = 1e3, strings.TrimSuffix(s, "Kbps")
	case strings.HasSuffix(s, "bps"):
		num = strings.TrimSuffix(s, "bps")
	default:
		return 0, fmt.Errorf("rate %q needs a bps/Kbps/Mbps/Gbps suffix", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if v *= mult; err != nil || !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return v, nil
}

// ParseDelay parses "0.5ms", "10us", "1s" into seconds. The delay must be
// finite and non-negative.
func ParseDelay(s string) (float64, error) {
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, num = 1e-3, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "us"):
		mult, num = 1e-6, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "s"):
		num = strings.TrimSuffix(s, "s")
	default:
		return 0, fmt.Errorf("delay %q needs an s/ms/us suffix", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if v *= mult; err != nil || !(v >= 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad delay %q", s)
	}
	return v, nil
}

// FormatRate renders bits/s with the largest exact unit.
func FormatRate(bps float64) string {
	switch {
	case bps >= 1e9 && bps == float64(int64(bps/1e9))*1e9:
		return fmt.Sprintf("%gGbps", bps/1e9)
	case bps >= 1e6 && bps == float64(int64(bps/1e6))*1e6:
		return fmt.Sprintf("%gMbps", bps/1e6)
	case bps >= 1e3 && bps == float64(int64(bps/1e3))*1e3:
		return fmt.Sprintf("%gKbps", bps/1e3)
	default:
		return fmt.Sprintf("%gbps", bps)
	}
}

// FormatDelay renders seconds with a unit that keeps precision readable.
func FormatDelay(sec float64) string {
	switch {
	case sec == 0:
		return "0s"
	case sec < 1e-3:
		return fmt.Sprintf("%gus", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%gms", sec*1e3)
	default:
		return fmt.Sprintf("%gs", sec)
	}
}
