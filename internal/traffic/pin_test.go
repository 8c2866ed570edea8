package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/topogen"
)

// workloadSHA hashes every field of w: %v prints each float in its shortest
// exact form, so two workloads hash alike only if they are bit-identical.
func workloadSHA(w Workload) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v", w)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorOutputPinned pins the exact flows each background generator
// emits on the paper topologies, so a change to how a generator builds or
// sorts its slice cannot move a single flow unnoticed.
func TestGeneratorOutputPinned(t *testing.T) {
	pins := map[string]string{
		"Campus/HTTP":       "82b04384bef65005838d03c59e568ed0663dc4c9972c443400b0865f6f09237c",
		"Campus/CBR":        "8cbdbfeb86d812d0adffbdfb8885f6ac74bfe414e61252d519764b0a1c0b78f1",
		"Campus/OnOff":      "7165031f63747ec171b439ee4889e65e040b4b23308ee932be56423c98bc1f8f",
		"TeraGrid/HTTP":     "72e82c0a2393ffe867fbe699b33f13135efd4c5b14516c70a7e8236e5f54ba8e",
		"TeraGrid/CBR":      "51d1fc0c16cc3050592b96786326c92ed8d33edb7c62976eb779a00ecea6bded",
		"TeraGrid/OnOff":    "b52d786e0dff6033438161a0be5c07bcf1c96ed940864820e99928ce7ce4b5b8",
		"Brite/HTTP":        "974b885ed212e1c011f771db90cc5b66919eec0e6f1d793acd529992a0865e53",
		"Brite/CBR":         "83b505421932b4894f694f058378f8abe32543fb6532b2a51f1638765273e96f",
		"Brite/OnOff":       "c4a146368af17c8d94ed133514fa0df09b804ee9469a63bc6b32114c249160e0",
		"Brite-large/HTTP":  "dce2ae8810d52a19d03996bbdfdb5aa38738b1dae60b748041b7136eef14af47",
		"Brite-large/CBR":   "0f264863ba08e12f89f776800faaf3fd3d7f9789a7b4613c76644100e6df45c4",
		"Brite-large/OnOff": "254f2782135b6848909626f3e654b082396582d896e1c7fe848854448a308fd2",
	}
	for _, topo := range []string{"Campus", "TeraGrid", "Brite", "Brite-large"} {
		nw, err := topogen.ByName(topo, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []struct {
			name string
			bg   Background
		}{
			{"HTTP", DefaultHTTP(120, 143)},
			{"CBR", DefaultCBR(120, 7)},
			{"OnOff", DefaultOnOff(120, 7)},
		} {
			key := topo + "/" + g.name
			want, ok := pins[key]
			got := workloadSHA(g.bg.Generate(nw))
			if !ok || got != want {
				t.Errorf("%s: workload SHA-256 %s, pinned %s", key, got, want)
			}
		}
	}
}
