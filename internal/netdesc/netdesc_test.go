package netdesc

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/topogen"
)

func TestReadBasic(t *testing.T) {
	in := `# tiny example
network demo
router r0 as=1
router r1 as=2 site=west
host h0 as=1
link h0 r0 bw=100Mbps lat=0.5ms
link r0 r1 bw=2.5Gbps lat=10ms
`
	nw, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Name != "demo" {
		t.Errorf("name = %q", nw.Name)
	}
	if nw.NumRouters() != 2 || nw.NumHosts() != 1 {
		t.Errorf("nodes = %dr/%dh", nw.NumRouters(), nw.NumHosts())
	}
	if nw.Nodes[1].Site != "west" || nw.Nodes[1].AS != 2 {
		t.Errorf("node attrs = %+v", nw.Nodes[1])
	}
	if len(nw.Links) != 2 {
		t.Fatalf("links = %d", len(nw.Links))
	}
	if nw.Links[0].Bandwidth != 100e6 || math.Abs(nw.Links[0].Latency-0.5e-3) > 1e-12 {
		t.Errorf("link0 = %+v", nw.Links[0])
	}
	if nw.Links[1].Bandwidth != 2.5e9 {
		t.Errorf("link1 bw = %v", nw.Links[1].Bandwidth)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"dupNode", "router a\nrouter a\nlink a a bw=1bps lat=0s\n"},
		{"unknownNode", "router a\nlink a b bw=1bps lat=0s\n"},
		{"badDirective", "frobnicate x\n"},
		{"badOption", "router a color=red\n"},
		{"badAS", "router a as=x\n"},
		{"linkArity", "router a\nrouter b\nlink a b\n"},
		{"badRate", "router a\nrouter b\nlink a b bw=fast lat=1ms\n"},
		{"badDelay", "router a\nrouter b\nlink a b bw=1Mbps lat=soon\n"},
		{"missingBw", "router a\nrouter b\nlink a b lat=1ms lat=2ms\n"},
		{"networkArity", "network a b\n"},
		{"hostNoName", "host\n"},
		{"malformedOpt", "router a as\n"},
		{"linkBadOpt", "router a\nrouter b\nlink a b bw=1Mbps foo=1\n"},
		{"nanDelay", "router a\nrouter b\nlink a b bw=1Mbps lat=NaNms\n"},
		{"infDelay", "router a\nrouter b\nlink a b bw=1Mbps lat=Infms\n"},
		{"nanRate", "router a\nrouter b\nlink a b bw=NaNbps lat=1ms\n"},
		{"infRate", "router a\nrouter b\nlink a b bw=+Infbps lat=1ms\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestReadValidates(t *testing.T) {
	// Host without a link fails network validation.
	if _, err := Read(strings.NewReader("host lonely\n")); err == nil {
		t.Error("unattached host accepted")
	}
}

func TestRoundTripGeneratedTopologies(t *testing.T) {
	for _, name := range []string{"Campus", "TeraGrid", "Brite"} {
		nw, err := topogen.ByName(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, nw); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumNodes() != nw.NumNodes() || len(got.Links) != len(nw.Links) {
			t.Fatalf("%s: shape changed: %d/%d -> %d/%d", name,
				nw.NumNodes(), len(nw.Links), got.NumNodes(), len(got.Links))
		}
		for i, n := range nw.Nodes {
			g := got.Nodes[i]
			if g.Kind != n.Kind || g.Name != n.Name || g.AS != n.AS || g.Site != n.Site {
				t.Fatalf("%s: node %d changed: %+v -> %+v", name, i, n, g)
			}
		}
		for i, l := range nw.Links {
			g := got.Links[i]
			if g.A != l.A || g.B != l.B {
				t.Fatalf("%s: link %d endpoints changed", name, i)
			}
			if math.Abs(g.Bandwidth-l.Bandwidth) > 1e-6*l.Bandwidth {
				t.Fatalf("%s: link %d bandwidth %v -> %v", name, i, l.Bandwidth, g.Bandwidth)
			}
			if math.Abs(g.Latency-l.Latency) > 1e-9 {
				t.Fatalf("%s: link %d latency %v -> %v", name, i, l.Latency, g.Latency)
			}
		}
	}
}

func TestParseRate(t *testing.T) {
	cases := map[string]float64{
		"100Mbps": 100e6,
		"2.5Gbps": 2.5e9,
		"64Kbps":  64e3,
		"1500bps": 1500,
	}
	for in, want := range cases {
		got, err := ParseRate(in)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("ParseRate(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"100", "Mbps", "-1Mbps", "0bps", "NaNbps", "+InfGbps", "1e308Gbps"} {
		if _, err := ParseRate(bad); err == nil {
			t.Errorf("ParseRate(%q) accepted", bad)
		}
	}
}

func TestParseDelay(t *testing.T) {
	cases := map[string]float64{
		"0.5ms": 0.5e-3,
		"10us":  10e-6,
		"1s":    1,
		"0s":    0,
	}
	for in, want := range cases {
		got, err := ParseDelay(in)
		if err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("ParseDelay(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"5", "ms", "-1ms", "NaNms", "Infus", "-Infs"} {
		if _, err := ParseDelay(bad); err == nil {
			t.Errorf("ParseDelay(%q) accepted", bad)
		}
	}
}

func TestFormatters(t *testing.T) {
	if FormatRate(2.5e9) != "2500Mbps" { // exact in Mbps, not in Gbps
		t.Errorf("FormatRate(2.5e9) = %q", FormatRate(2.5e9))
	}
	if FormatRate(100e6) != "100Mbps" {
		t.Errorf("FormatRate(100e6) = %q", FormatRate(100e6))
	}
	if FormatRate(40e9) != "40Gbps" {
		t.Errorf("FormatRate(40e9) = %q", FormatRate(40e9))
	}
	if FormatDelay(0.5e-3) != "500us" { // sub-millisecond renders in us
		t.Errorf("FormatDelay = %q", FormatDelay(0.5e-3))
	}
	if FormatDelay(3e-3) != "3ms" {
		t.Errorf("FormatDelay(3ms) = %q", FormatDelay(3e-3))
	}
	if FormatDelay(10e-6) != "10us" {
		t.Errorf("FormatDelay = %q", FormatDelay(10e-6))
	}
	if FormatDelay(0) != "0s" {
		t.Errorf("FormatDelay(0) = %q", FormatDelay(0))
	}
	// Round trips through parse.
	for _, v := range []float64{1e3, 64e3, 1.5e6, 2.5e9} {
		s := FormatRate(v)
		got, err := ParseRate(s)
		if err != nil || math.Abs(got-v) > 1e-9 {
			t.Errorf("rate round trip %v -> %q -> %v (%v)", v, s, got, err)
		}
	}
}
