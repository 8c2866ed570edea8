package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Debug endpoint: a small HTTP server exposing Go's runtime profiling
// (net/http/pprof) and process counters (expvar). It uses its own mux rather
// than http.DefaultServeMux so importing this package never mutates global
// handlers.

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060") serving
// /debug/pprof/* and /debug/vars, and returns the server together with its
// resolved base URL. Additional subsystems mount their own handlers through
// mounts — each receives the server's mux before it starts serving (this is
// how telemetry.Mount adds /metrics and /trafficmatrix without obs importing
// it). The caller owns shutdown (srv.Shutdown for graceful drain, srv.Close
// to abort). Pass addr with port 0 to pick a free port.
func ServeDebug(addr string, mounts ...func(*http.ServeMux)) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: debug endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	for _, m := range mounts {
		if m != nil {
			m(mux)
		}
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}
