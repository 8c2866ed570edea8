package netdesc

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead exercises the network-description parser with arbitrary input:
// it must never panic, every link it accepts must have a finite bandwidth and
// latency, and anything it accepts must re-serialize and parse back to the
// same shape.
func FuzzRead(f *testing.F) {
	f.Add("network demo\nrouter r0 as=1\nhost h0\nlink h0 r0 bw=100Mbps lat=0.5ms\n")
	f.Add("# comment only\n")
	f.Add("router a\nrouter b\nlink a b bw=1Gbps lat=1ms\nlink a b bw=1Gbps lat=2ms\n")
	f.Add("host x as=99 site=y\n")
	f.Add("link a b bw= lat=\n")
	for _, link := range []string{"bw=1Mbps lat=NaNms", "bw=1Mbps lat=Infms", "bw=NaNbps lat=1ms", "bw=+Infbps lat=1ms"} {
		f.Add("router a\nrouter b\nlink a b " + link + "\n")
	}
	f.Fuzz(func(t *testing.T, in string) {
		nw, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, l := range nw.Links {
			if math.IsNaN(l.Bandwidth) || math.IsInf(l.Bandwidth, 0) || math.IsNaN(l.Latency) || math.IsInf(l.Latency, 0) {
				t.Fatalf("accepted link %d with bandwidth %g, latency %g", l.ID, l.Bandwidth, l.Latency)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, nw); err != nil {
			t.Fatalf("accepted network failed to serialize: %v", err)
		}
		// Names containing whitespace would break the format; generated
		// names never do, but fuzz input can — skip those.
		for _, n := range nw.Nodes {
			if strings.ContainsAny(n.Name, " \t") || strings.ContainsAny(n.Site, " \t") {
				return
			}
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\nserialized:\n%s", err, buf.String())
		}
		if back.NumNodes() != nw.NumNodes() || len(back.Links) != len(nw.Links) {
			t.Fatalf("round trip changed shape")
		}
	})
}
