package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeDebugEndpoints covers the built-in surface: expvar with Go's own
// runtime vars, the pprof index, and 404s for unknown paths.
func TestServeDebugEndpoints(t *testing.T) {
	srv, base, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, body := getBody(t, base+"/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, `"memstats"`) {
		t.Errorf("expvar: status %d, body:\n%s", code, body)
	}
	if code, body := getBody(t, base+"/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d, body:\n%s", code, body)
	}
	if code, _ := getBody(t, base+"/no-such-endpoint"); code != http.StatusNotFound {
		t.Errorf("unknown path served status %d, want 404", code)
	}
}

// TestServeDebugMounts: extra subsystems (telemetry's /metrics and
// /trafficmatrix in production) hook the mux through the variadic mount
// functions; nil mounts are ignored.
func TestServeDebugMounts(t *testing.T) {
	srv, base, err := ServeDebug("127.0.0.1:0", nil, func(mux *http.ServeMux) {
		mux.HandleFunc("/mounted", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "mounted-ok")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, body := getBody(t, base+"/mounted"); code != http.StatusOK || body != "mounted-ok" {
		t.Errorf("mounted handler: status %d body %q", code, body)
	}
	// The built-ins survive alongside mounts.
	if code, _ := getBody(t, base+"/debug/vars"); code != http.StatusOK {
		t.Errorf("expvar lost after mounting: status %d", code)
	}
}

// TestServeDebugGracefulShutdown: Shutdown drains an in-flight request to
// completion, and afterwards the listener no longer accepts connections.
func TestServeDebugGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	srv, base, err := ServeDebug("127.0.0.1:0", func(mux *http.ServeMux) {
		mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			io.WriteString(w, "drained")
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var slowBody string
	var slowErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slowErr = err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		slowBody, slowErr = string(b), err
	}()
	<-entered

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight handler, not kill it.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	wg.Wait()
	if slowErr != nil || slowBody != "drained" {
		t.Fatalf("in-flight request not drained: body %q err %v", slowBody, slowErr)
	}
	if _, err := http.Get(base + "/debug/vars"); err == nil {
		t.Error("listener still accepting connections after Shutdown")
	}
}
