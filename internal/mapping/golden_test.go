package mapping

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/netgraph"
	"repro/internal/partition"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// assignmentSHA is the SHA-256 of an assignment written as "p0,p1,...".
func assignmentSHA(part []int) string {
	h := sha256.New()
	for _, p := range part {
		fmt.Fprintf(h, "%d,", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPins are the assignments of PR 12 (commit 4d61f48), recorded before
// the partitioner's refine/rebalance hot path was rewritten: every
// optimization of internal/partition since must reproduce them bit for bit.
// A deliberate change of the partitioner's answers re-records them.
var goldenPins = map[string]string{
	"Campus/42/TOP":       "f4dcf91f63ddb6374cca23784c58541312405534b06ca450e51081cb465fdaf2",
	"Campus/42/PLACE":     "0594e0d53d9b513d8ecc7cd3d5b74a0c1fbf04ba04b8130068ab416a4a6f03da",
	"Campus/42/PROFILE":   "606717437d609c89cdd3403998c2a9c2c995a8240e9d018f3d6dfc78f4186eea",
	"Campus/7/TOP":        "419afa39ddddf390f64d82e734b4483d0c97622d79dbd68b7925964f75f08686",
	"Campus/7/PLACE":      "8c0801f59adb94c93d716ee09cc9c06b5c0a0cc2e47a4b661c9f297f6145a153",
	"Campus/7/PROFILE":    "1f4d933b2657ec804c13377de98982174d6091e098a283d1a7583ba750a35c55",
	"TeraGrid/42/TOP":     "79a9fd1c2db32332dfee602552c2b68ddf6b34636438defd6d70b57f4c304d7c",
	"TeraGrid/42/PLACE":   "ffaf17e608502b5f8db4449256326535494d3835874ca7feb77c6f832702efe8",
	"TeraGrid/42/PROFILE": "43769ffc59db486db620042e2e821106b9b2e2874f3c0ce7e6508a2ae46e459b",
	"TeraGrid/7/TOP":      "44032949dc2e68899d4d7baa2edb45b013c41b9fbbae446da24e8eafdb1068e9",
	"TeraGrid/7/PLACE":    "ef448165084841b9233fe6a2246b3c892d4d9d76f0d2fa8f674da44c73c94164",
	"TeraGrid/7/PROFILE":  "4cd34e3e35536b0cdb8fc0d01e5fe2c4dbabb4c48884a52591ec725224c63ddd",
	"Brite/42/TOP":        "e431f871cbe32aa1c5111e1794598531eb892fc82671d72eb1364adcb403ee45",
	"Brite/42/PLACE":      "a52e5344da3f869c276ade00ad410ba3936e1078e3422bd62431800a9d1f18d3",
	"Brite/42/PROFILE":    "835a3d189602ac5e43e6a7534d6cf31c03a853bde4e16021763c8e5a4c0fe7e6",
	"Brite/7/TOP":         "b2abe4bad462ae1bcf271899c0b6cd6036c35d0c0c5c5a5ed034c64b6dcf9f4f",
	"Brite/7/PLACE":       "ab9e4ee7b165b21f142ffc4af7d6ebfa29a76d09c6f8bf4bee17da7c7a02903a",
	"Brite/7/PROFILE":     "cfba8ed01880aaec83b74c6e7c1623ee467b67b251948697cb5d044abd311f7a",
	"Campus/remap":        "aa4b16193985bd6026d9d14a31f63443bad3d09ed1d7932093a3ee97102bf8de",
	"TeraGrid/fractions":  "d732182056791713186a465e51c693da7bfb59041f16ebaf0c7ed311e75d414b",
}

// goldenInput is the full TOP/PLACE/PROFILE input of one topology and seed:
// predicted HTTP background, the first ten hosts as the application, and the
// NetFlow summary of a 20 s profiling run under the TOP assignment.
func goldenInput(t testing.TB, nw *netgraph.Network, k int, seed int64) Input {
	t.Helper()
	spec := traffic.DefaultHTTP(20, seed)
	in := Input{
		Network:    nw,
		Routes:     nw.SharedRouting(),
		K:          k,
		PartOpts:   partition.Options{Seed: seed},
		Background: spec.Predict(nw),
		AppHosts:   nw.Hosts()[:10],
		Cluster:    true,
	}
	top, err := TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := emu.Run(emu.Config{
		Network: nw, Routes: in.Routes, Assignment: top, NumEngines: k,
		Workload: spec.Generate(nw), Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Summary = prof.NetFlow.Summarize()
	return in
}

func TestMappingGolden(t *testing.T) {
	check := func(name string, part []int, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if got := assignmentSHA(part); got != goldenPins[name] {
			t.Errorf("%s: assignment sha %s, pinned %s", name, got, goldenPins[name])
		}
	}

	for _, spec := range topogen.Table1() {
		for _, seed := range []int64{42, 7} {
			nw, err := topogen.ByName(spec.Name, 42)
			if err != nil {
				t.Fatal(err)
			}
			in := goldenInput(t, nw, spec.Engines, seed)
			for _, a := range Approaches() {
				part, err := Map(a, in)
				check(fmt.Sprintf("%s/%d/%s", spec.Name, seed, a), part, err)
			}
		}
	}

	// The other entry points that reach refine/rebalance.
	campus := topogen.Campus()
	in := goldenInput(t, campus, 3, 42)
	in4 := in
	in4.K = 4
	prev, err := TopMap(in4)
	if err != nil {
		t.Fatal(err)
	}
	remapped, _, err := RemapOnto(in4, prev, []int{0, 1, 3}, nil)
	check("Campus/remap", remapped, err)

	tg := topogen.TeraGrid()
	het := Input{Network: tg, K: 5, PartOpts: partition.Options{Seed: 42}, EngineFractions: []float64{4, 2, 2, 1, 1}}
	part, err := TopMap(het)
	check("TeraGrid/fractions", part, err)
}
