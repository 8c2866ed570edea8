package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// ClusterHealth is the coordinator's live cluster-health signal: worker
// count, per-worker straggler attribution (gated-window counts and
// critical-path share from the tracing timeline), the window-lag histogram,
// and measured heartbeat round trips. It owns its own Registry — separate
// from the traffic-plane Collector's, whose instrument set is rebuilt per
// run — so MountCluster can append its exposition to /metrics and serve a
// machine-readable /healthz.
//
// Everything except the RTT gauges derives from the deterministic modeled
// timeline; RTTs are wall-clock by nature and only exist while heartbeat
// probing is active.
type ClusterHealth struct {
	mu  sync.Mutex
	reg *Registry

	workers Value
	windows Value
	lagHist HistValue
	lag     *metrics.Histogram

	gated map[int]Value
	share map[int]Value
	rtt   map[int]Value

	// summary mirrors the gauge state for Healthz.
	nWorkers int
	nWindows int64
	gatedN   map[int]int64
	shareV   map[int]float64
	rttV     map[int]float64
}

// NewClusterHealth returns an empty cluster-health registry.
func NewClusterHealth() *ClusterHealth {
	h := &ClusterHealth{
		reg:    NewRegistry(),
		gated:  make(map[int]Value),
		share:  make(map[int]Value),
		rtt:    make(map[int]Value),
		gatedN: make(map[int]int64),
		shareV: make(map[int]float64),
		rttV:   make(map[int]float64),
	}
	h.workers = h.reg.Gauge("massf_cluster_workers",
		"Workers currently active in the distributed run.")
	h.windows = h.reg.Counter("massf_cluster_windows_total",
		"Synchronization windows committed by the coordinator.")
	h.lagHist = h.reg.Histogram("massf_window_lag_seconds",
		"Per-window modeled gap between the gating worker and the runner-up.")
	h.lag = metrics.MustLogHistogram(1e-9, 1e3, 4)
	return h
}

// WriteExposition renders the cluster families in the Prometheus text
// format.
func (h *ClusterHealth) WriteExposition(w io.Writer) error {
	return h.reg.WriteExposition(w)
}

// SetWorkers records the active worker count.
func (h *ClusterHealth) SetWorkers(n int) {
	h.mu.Lock()
	h.nWorkers = n
	h.mu.Unlock()
	h.workers.Set(float64(n))
}

func workerLabel(w int) Label { return Label{"worker", strconv.Itoa(w)} }

// ObserveWindow accounts one committed window: the gating worker's
// gated-window counter bumps and the lag histogram absorbs the gap to the
// runner-up. worker < 0 (an all-idle window) only counts the window.
func (h *ClusterHealth) ObserveWindow(worker int, lag float64) {
	h.mu.Lock()
	h.nWindows++
	var gv Value
	haveG := false
	if worker >= 0 {
		h.gatedN[worker]++
		var ok bool
		if gv, ok = h.gated[worker]; !ok {
			gv = h.reg.Counter("massf_worker_gated_windows_total",
				"Windows this worker's engines gated (held the critical path).",
				workerLabel(worker))
			h.gated[worker] = gv
		}
		haveG = true
		h.lag.Observe(lag)
	}
	h.mu.Unlock()

	h.windows.Add(1)
	if haveG {
		gv.Add(1)
		h.lagHist.Set(h.lag)
	}
}

// SetAttribution replaces the per-worker critical-path share gauges with the
// timeline's current attribution.
func (h *ClusterHealth) SetAttribution(health []obs.WorkerHealth) {
	h.mu.Lock()
	type upd struct {
		v Value
		x float64
	}
	ups := make([]upd, 0, len(health))
	for _, wh := range health {
		v, ok := h.share[wh.Worker]
		if !ok {
			v = h.reg.Gauge("massf_worker_critical_path_share",
				"Fraction of the run's modeled critical path attributed to this worker.",
				workerLabel(wh.Worker))
			h.share[wh.Worker] = v
		}
		h.shareV[wh.Worker] = wh.Share
		ups = append(ups, upd{v, wh.Share})
	}
	h.mu.Unlock()
	for _, u := range ups {
		u.v.Set(u.x)
	}
}

// ObserveRTT records a measured heartbeat PING→PONG round trip for a worker.
func (h *ClusterHealth) ObserveRTT(worker int, rtt time.Duration) {
	s := rtt.Seconds()
	h.mu.Lock()
	v, ok := h.rtt[worker]
	if !ok {
		v = h.reg.Gauge("massf_worker_heartbeat_rtt_seconds",
			"Last measured heartbeat round-trip time to this worker.",
			workerLabel(worker))
		h.rtt[worker] = v
	}
	h.rttV[worker] = s
	h.mu.Unlock()
	v.Set(s)
}

// healthzWorker is one worker's row in the /healthz document.
type healthzWorker struct {
	Worker            int     `json:"worker"`
	GatedWindows      int64   `json:"gated_windows"`
	CriticalPathShare float64 `json:"critical_path_share"`
	HeartbeatRTT      float64 `json:"heartbeat_rtt_seconds,omitempty"`
}

// healthzDoc is the /healthz body.
type healthzDoc struct {
	Status  string          `json:"status"`
	Workers int             `json:"workers"`
	Windows int64           `json:"windows"`
	Detail  []healthzWorker `json:"worker_detail,omitempty"`
}

// WriteHealthz renders a machine-readable health summary: active worker
// count, committed windows, and the per-worker attribution rows sorted by
// worker id.
func (h *ClusterHealth) WriteHealthz(w io.Writer) error {
	h.mu.Lock()
	doc := healthzDoc{Status: "ok", Workers: h.nWorkers, Windows: h.nWindows}
	ids := make([]int, 0, len(h.gatedN)+len(h.rttV))
	seen := make(map[int]bool)
	for id := range h.gatedN {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for id := range h.rttV {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		doc.Detail = append(doc.Detail, healthzWorker{
			Worker:            id,
			GatedWindows:      h.gatedN[id],
			CriticalPathShare: h.shareV[id],
			HeartbeatRTT:      h.rttV[id],
		})
	}
	h.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
