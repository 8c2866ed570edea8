// Memory-footprint baseline for the routing oracles (BENCH_memroute.json).
// Unlike the timing baselines, every number here is a deterministic byte
// count, so the committed file is an exact-match regression gate: any change
// to the oracle layouts, the clustering, or the generators shows up as drift.
//
// Regenerate after an intentional layout change with:
//
//	MEMROUTE_WRITE=1 go test -run TestMemRouteBaseline
package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/netgraph"
	"repro/internal/topogen"
)

const memrouteFile = "BENCH_memroute.json"

type memrouteEntry struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	Backend  string `json:"backend"`
	Bytes    int64  `json:"bytes"`
	// Model marks entries computed from the 4·n² closed form instead of a
	// built table — the flat table at 10⁵ nodes would need ~40 GB.
	Model bool `json:"model,omitempty"`
}

type memrouteBaseline struct {
	Suite       string          `json:"suite"`
	Description string          `json:"description"`
	Date        string          `json:"date"`
	Entries     []memrouteEntry `json:"entries"`
}

// memrouteWarmRows is how many lazy rows the baseline warms (and caps), so
// the lazy oracle's footprint is a fixed, deterministic number of rows.
const memrouteWarmRows = 32

func memrouteTopology(tb testing.TB, name string) *netgraph.Network {
	tb.Helper()
	if name == "ScaleFree-100k" {
		nw, err := topogen.ScaleFree(topogen.ScaleFreeConfig{
			Routers: 100_000, Hosts: 200, LinksPerNewRouter: 2, Seed: 42,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return nw
	}
	nw, err := topogen.ByName(name, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// memrouteMeasure recomputes one baseline entry.
func memrouteMeasure(tb testing.TB, nw *netgraph.Network, backend string, model bool) int64 {
	tb.Helper()
	n := nw.NumNodes()
	if model {
		// Flat stores one dense n×n array of int32 next links.
		return 4 * int64(n) * int64(n)
	}
	switch backend {
	case "flat":
		return nw.BuildRoutingTable().MemoryBytes()
	case "lazy":
		l, err := netgraph.NewLazyRouting(nw, memrouteWarmRows)
		if err != nil {
			tb.Fatal(err)
		}
		warm := memrouteWarmRows
		if warm > n {
			warm = n
		}
		for src := 0; src < warm; src++ {
			l.NextLink(src, (src+1)%n)
		}
		return l.MemoryBytes()
	case "hier":
		// Through the normalizing constructor: per-AS grouping on the paper
		// topologies, auto-clustered on the single-AS scale-free network.
		h, err := nw.BuildRouting(netgraph.RoutingOptions{Backend: netgraph.Hier})
		if err != nil {
			tb.Fatal(err)
		}
		return h.MemoryBytes()
	default:
		tb.Fatalf("unknown backend %q", backend)
		return 0
	}
}

func memrouteCompute(tb testing.TB) []memrouteEntry {
	tb.Helper()
	var out []memrouteEntry
	for _, name := range []string{"Campus", "TeraGrid", "Brite-large", "ScaleFree-100k"} {
		nw := memrouteTopology(tb, name)
		n := nw.NumNodes()
		backends := []struct {
			backend string
			model   bool
		}{
			{"flat", name == "ScaleFree-100k"}, // never build 40 GB
			{"lazy", false},
			{"hier", false},
		}
		for _, b := range backends {
			out = append(out, memrouteEntry{
				Topology: name,
				Nodes:    n,
				Backend:  b.backend,
				Bytes:    memrouteMeasure(tb, nw, b.backend, b.model),
				Model:    b.model,
			})
		}
	}
	return out
}

// TestMemRouteBaseline is the drift check: the byte counts in
// BENCH_memroute.json must exactly match what the current code produces, and
// the sub-quadratic oracles must actually be sub-quadratic — on the 10⁵
// topology both lazy and clustered-hier must undercut the flat model by at
// least 100×.
func TestMemRouteBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 10⁵-router topology")
	}
	got := memrouteCompute(t)

	if os.Getenv("MEMROUTE_WRITE") != "" {
		b := memrouteBaseline{
			Suite:       "memroute",
			Description: "Deterministic routing-oracle memory footprints (bytes): flat table vs lazy (32 warmed rows) vs auto-clustered hierarchical, per paper topology plus the 10⁵-router scale-free network. Flat at 10⁵ nodes is the 4·n² closed form, not a build.",
			Date:        "2026-10-17",
			Entries:     got,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(memrouteFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", memrouteFile, len(got))
		return
	}

	data, err := os.ReadFile(memrouteFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v (regenerate with MEMROUTE_WRITE=1)", err)
	}
	var want memrouteBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Entries) != len(got) {
		t.Fatalf("baseline holds %d entries, current code produces %d", len(want.Entries), len(got))
	}
	byKey := func(es []memrouteEntry) map[string]memrouteEntry {
		m := make(map[string]memrouteEntry, len(es))
		for _, e := range es {
			m[fmt.Sprintf("%s/%s", e.Topology, e.Backend)] = e
		}
		return m
	}
	wantBy, gotBy := byKey(want.Entries), byKey(got)
	for key, w := range wantBy {
		g, ok := gotBy[key]
		if !ok {
			t.Errorf("%s: in baseline but not produced by current code", key)
			continue
		}
		if g != w {
			t.Errorf("%s: drift — baseline %+v, current %+v (regenerate with MEMROUTE_WRITE=1 if intentional)", key, w, g)
		}
	}

	// The ordering the redesign exists for.
	for _, name := range []string{"Campus", "TeraGrid", "Brite-large", "ScaleFree-100k"} {
		flat := gotBy[name+"/flat"].Bytes
		lazy := gotBy[name+"/lazy"].Bytes
		hier := gotBy[name+"/hier"].Bytes
		if lazy >= flat || hier >= flat {
			t.Errorf("%s: not sub-quadratic — flat %d, lazy %d, hier %d", name, flat, lazy, hier)
		}
		if name == "ScaleFree-100k" {
			if lazy >= flat/100 || hier >= flat/100 {
				t.Errorf("10⁵ nodes: oracles must undercut flat 100× — flat %d, lazy %d, hier %d", flat, lazy, hier)
			}
		}
	}
}
