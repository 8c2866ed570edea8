package telemetry_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// scrape returns the /metrics body Mount serves for c.
func scrape(c *telemetry.Collector) []byte {
	mux := http.NewServeMux()
	telemetry.Mount(c)(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.Bytes()
}

// idleTraffic is a five-link run on which nothing has moved yet.
type idleTraffic struct{}

func (idleTraffic) Counters() (bytes, packets, drops []int64) {
	return make([]int64, 10), make([]int64, 10), make([]int64, 10)
}

func (idleTraffic) SlotEngines(int) (src, dst int) { return 0, 0 }

// manyWorkers is a ClusterHealth over 12 workers: each gates 1–4 windows,
// reports a heartbeat RTT and gets a critical-path share, so worker "10"
// sorts before worker "2" in every labelled family.
func manyWorkers() *telemetry.ClusterHealth {
	h := telemetry.NewClusterHealth()
	h.SetWorkers(12)
	var attr []obs.WorkerHealth
	for w := 0; w < 12; w++ {
		for i := 0; i <= w%4; i++ {
			h.ObserveWindow(w, float64(w)*1e-4+float64(i)*1e-6)
		}
		h.ObserveRTT(w, time.Duration(w+1)*100*time.Microsecond)
		attr = append(attr, obs.WorkerHealth{Worker: w, GatedWindows: int64(w%4 + 1), Share: float64(w) / 66})
	}
	h.ObserveWindow(-1, 0)
	h.SetAttribution(attr)
	return h
}

// gatingOnly is a ClusterHealth whose workers gate windows but report no RTT
// and get no attribution, so those two families are absent.
func gatingOnly() *telemetry.ClusterHealth {
	h := telemetry.NewClusterHealth()
	h.SetWorkers(2)
	h.ObserveWindow(1, 0.5)
	h.ObserveWindow(0, 2e-3)
	return h
}

// TestExpositionPinned pins the /metrics and /healthz bytes of the states a
// scrape can meet outside a run. The SHA-256 values were recorded at commit
// 2d5e23a, while the exposition was still kept in a generic registry.
func TestExpositionPinned(t *testing.T) {
	reset := telemetry.New()
	reset.Reset(telemetry.Dims{Engines: 12, Links: 5, BucketWidth: 2})
	// A collector reused across runs renders the same bytes once Reset,
	// whether the last run had the same dimensions or others.
	reused := func(engines int) []byte {
		c := telemetry.New()
		c.Reset(telemetry.Dims{Engines: engines, Links: 5, BucketWidth: 2})
		t := idleTraffic{}
		c.Commit(0, 2.5, make([]int64, engines), t)
		c.Finish(3, t)
		c.Reset(telemetry.Dims{Engines: 12, Links: 5, BucketWidth: 2})
		return scrape(c)
	}
	cluster := func(h *telemetry.ClusterHealth) []byte {
		var b bytes.Buffer
		if err := h.WriteExposition(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	healthz := func(h *telemetry.ClusterHealth) []byte {
		var b bytes.Buffer
		if err := h.WriteHealthz(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"unsized-collector", scrape(telemetry.New()), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"reset-unpublished-collector", scrape(reset), "649189bcb0ac21f0a0e6e75400203c6aad7094e77b4bdd1cf2c3a2ccca9b7566"},
		{"reused-same-dims", reused(12), "649189bcb0ac21f0a0e6e75400203c6aad7094e77b4bdd1cf2c3a2ccca9b7566"},
		{"reused-other-dims", reused(3), "649189bcb0ac21f0a0e6e75400203c6aad7094e77b4bdd1cf2c3a2ccca9b7566"},
		{"fresh-cluster", cluster(telemetry.NewClusterHealth()), "35708a9764c16043c367454314baba23654ef591dcd5f981680bd084f8a70ab4"},
		{"fresh-cluster-healthz", healthz(telemetry.NewClusterHealth()), "ab843147c011ef014efb92c609c3df2d356b2f1f1c811128509652af1f2515a3"},
		{"12-worker-cluster", cluster(manyWorkers()), "2f6daa52353f80ef5cfc781c5b3f0cb5a4ab5392b34f051e1e9e07bfb0662777"},
		{"12-worker-cluster-healthz", healthz(manyWorkers()), "2bba40009d9de8b68ce44e0e0fc50e5fac2bae89d76d7761902414e19af1077d"},
		{"gating-only-cluster", cluster(gatingOnly()), "dd37afe880380a4b435969892a4338a432c87e07f631607271d342a7221e375c"},
	} {
		sum := sha256.Sum256(tc.body)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 = %s, want %s\n%s", tc.name, got, tc.want, tc.body)
		}
	}
}
