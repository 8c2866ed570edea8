package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
)

// Mount returns a mux-mounting function for obs.ServeDebug that exposes the
// collector's traffic plane over HTTP:
//
//	/metrics        Prometheus text exposition (Collector.WriteExposition)
//	/trafficmatrix  JSON Snapshot (matrix, link totals, quantiles, timeline)
//
// Both endpoints render the collector's one barrier-time state, so they agree
// with each other; they are safe to hit while a run is live and return
// byte-identical bodies for identical completed runs. telemetry does not import obs (callers compose the two):
//
//	srv, addr, err := obs.ServeDebug(addr, telemetry.Mount(col))
func Mount(c *Collector) func(*http.ServeMux) {
	return MountCluster(c, nil)
}

// MountCluster is Mount plus the coordinator's cluster-health plane:
//
//	/metrics  traffic exposition followed by the ClusterHealth families
//	/healthz  machine-readable worker/straggler summary (JSON)
//
// Either argument may be nil — a nil collector serves an empty traffic plane
// (the coordinator-only deployment), a nil health drops /healthz and the
// extra /metrics families. The collector's and the health's families render
// back-to-back in one body because a ServeMux allows only one /metrics
// handler.
func MountCluster(c *Collector, h *ClusterHealth) func(*http.ServeMux) {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if c != nil {
				_ = c.WriteExposition(w)
			}
			if h != nil {
				_ = h.WriteExposition(w)
			}
		})
		mux.HandleFunc("/trafficmatrix", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if c == nil {
				_, _ = io.WriteString(w, "{}\n")
				return
			}
			_ = WriteMatrixJSON(w, c.Snapshot())
		})
		if h != nil {
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_ = h.WriteHealthz(w)
			})
		}
	}
}

// WriteMatrixJSON serializes a snapshot as indented JSON — the exact bytes
// the /trafficmatrix endpoint serves, factored out so cmd/massf's
// -matrix-out flag and the golden tests produce the same form. The Snapshot
// struct contains no maps, so encoding is deterministic.
func WriteMatrixJSON(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
