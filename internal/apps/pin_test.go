package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/traffic"
)

// workloadSHA hashes every field of w: %v prints each float in its shortest
// exact form, so two workloads hash alike only if they are bit-identical.
func workloadSHA(w traffic.Workload) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v", w)
	return hex.EncodeToString(h.Sum(nil))
}

// TestAppOutputPinned pins the exact flows both foreground applications emit,
// so a change to how a generator builds or sorts its slice cannot move a
// single flow unnoticed.
func TestAppOutputPinned(t *testing.T) {
	scaled := DefaultScaLapack()
	scaled.Duration, scaled.ScaleBytes = 120, 14
	short := DefaultGridNPB()
	short.Duration = 120
	for _, c := range []struct {
		name string
		app  App
		seed int64
		want string
	}{
		{"ScaLapack", DefaultScaLapack(), 47, "208ea1dafb60c666b4464268523a26197f9d32c7c7e2799f27de8f6173c98b42"},
		{"ScaLapack-120s", scaled, 47, "0f94390fad20de5d748dd21dbe7c3dde50cfa1f371e62ab9f8bf7918be45b595"},
		{"GridNPB", DefaultGridNPB(), 47, "5e9e47dbe652d9dfd0a40ab3c9a4eb022281ed9fb8f58eac0430dc11783e70f5"},
		{"GridNPB-120s", short, 3, "a2a4ec40d942412938c0169d49e89f6a4d386f353407f43b6ec49185f990f65e"},
	} {
		w := mustGen(t, c.app, appHosts(c.app.Hosts()), c.seed)
		if got := workloadSHA(w); got != c.want {
			t.Errorf("%s: workload SHA-256 %s, pinned %s", c.name, got, c.want)
		}
	}
}
