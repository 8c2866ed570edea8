package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func clusterFixture() *ClusterHealth {
	h := NewClusterHealth()
	h.SetWorkers(3)
	h.ObserveWindow(1, 0.5)
	h.ObserveWindow(1, 0.25)
	h.ObserveWindow(0, 0)
	h.ObserveWindow(-1, 0) // all-idle window: counts, attributes nobody
	h.SetAttribution([]obs.WorkerHealth{
		{Worker: 0, GatedWindows: 1, CriticalPath: 2, Share: 0.25},
		{Worker: 1, GatedWindows: 2, CriticalPath: 6, Share: 0.75},
	})
	h.ObserveRTT(2, 1500*time.Microsecond)
	return h
}

func TestClusterHealthExposition(t *testing.T) {
	var b strings.Builder
	if err := clusterFixture().WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`massf_cluster_workers 3`,
		`massf_cluster_windows_total 4`,
		`massf_worker_gated_windows_total{worker="0"} 1`,
		`massf_worker_gated_windows_total{worker="1"} 2`,
		`massf_worker_critical_path_share{worker="1"} 0.75`,
		`massf_worker_heartbeat_rtt_seconds{worker="2"} 0.0015`,
		`massf_window_lag_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestClusterHealthHealthz(t *testing.T) {
	var b strings.Builder
	if err := clusterFixture().WriteHealthz(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Windows int64  `json:"windows"`
		Detail  []struct {
			Worker int     `json:"worker"`
			Gated  int64   `json:"gated_windows"`
			Share  float64 `json:"critical_path_share"`
			RTT    float64 `json:"heartbeat_rtt_seconds"`
		} `json:"worker_detail"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("healthz is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.Status != "ok" || doc.Workers != 3 || doc.Windows != 4 {
		t.Errorf("healthz summary = %+v, want ok/3 workers/4 windows", doc)
	}
	if len(doc.Detail) != 3 {
		t.Fatalf("worker_detail rows = %d, want 3 (two gating + one with RTT)", len(doc.Detail))
	}
	if d := doc.Detail[1]; d.Worker != 1 || d.Gated != 2 || d.Share != 0.75 {
		t.Errorf("worker 1 detail = %+v", d)
	}
	if d := doc.Detail[2]; d.Worker != 2 || d.RTT != 0.0015 {
		t.Errorf("worker 2 detail = %+v, want RTT 0.0015", d)
	}
}

// TestMountClusterEndpoints covers the coordinator-only deployment: no
// traffic-plane collector, health mounted on /metrics and /healthz.
func TestMountClusterEndpoints(t *testing.T) {
	mux := http.NewServeMux()
	MountCluster(nil, clusterFixture())(mux)
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	if body := get("/metrics"); !strings.Contains(body, `massf_worker_critical_path_share{worker="1"} 0.75`) {
		t.Errorf("/metrics missing health families:\n%s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz body = %s", body)
	}
	if body := get("/trafficmatrix"); body != "{}\n" {
		t.Errorf("nil-collector /trafficmatrix = %q, want {}", body)
	}
}

// TestClusterHealthConcurrentScrape: the coordinator writes the signal while
// /metrics and /healthz render it; under -race this checks that every access
// is under the one mutex.
func TestClusterHealthConcurrentScrape(t *testing.T) {
	h := NewClusterHealth()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			h.SetWorkers(i%5 + 1)
			h.ObserveWindow(i%12, float64(i)*1e-6)
			h.SetAttribution([]obs.WorkerHealth{{Worker: i % 12, Share: 0.5}})
			h.ObserveRTT(i%7, time.Duration(i)*time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		if err := h.WriteExposition(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := h.WriteHealthz(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
