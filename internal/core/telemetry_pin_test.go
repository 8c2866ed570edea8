package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/telemetry"
)

// telemetryPins hashes a finished collector's two HTTP bodies: the
// /trafficmatrix JSON and the /metrics exposition.
func telemetryPins(t *testing.T, tel *telemetry.Collector) (matrix, exposition string) {
	t.Helper()
	var m, e bytes.Buffer
	if err := telemetry.WriteMatrixJSON(&m, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteExposition(&e); err != nil {
		t.Fatal(err)
	}
	ms, es := sha256.Sum256(m.Bytes()), sha256.Sum256(e.Bytes())
	return hex.EncodeToString(ms[:]), hex.EncodeToString(es[:])
}

// TestTelemetryRemapPinned pins every byte the traffic plane publishes for a
// static TOP run on Campus with finite buffers (so drops are counted) and for
// a dynamically remapped run whose 7 s interval puts every remap inside a
// 2 s measurement window, where the traffic before the remap must be binned by
// the assignment it ran under. The dynamic run also pins each segment's
// cross-engine bytes, which the remap policy reads off the live matrix at the
// barrier. The SHA-256 values were recorded at commit 74e6511, while the
// matrix was still counted packet by packet.
func TestTelemetryRemapPinned(t *testing.T) {
	t.Run("static-TOP", func(t *testing.T) {
		sc := dynamicScenario()
		in, err := sc.MappingInput()
		if err != nil {
			t.Fatal(err)
		}
		top, err := mapping.TopMap(in)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.emuConfig(top)
		if err != nil {
			t.Fatal(err)
		}
		cfg.BufferBytes = 64 << 10
		tel := telemetry.New()
		res, err := emu.Run(cfg, emu.WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		if res.DroppedPackets == 0 {
			t.Error("the buffered run dropped nothing; drops are not pinned")
		}
		matrix, exposition := telemetryPins(t, tel)
		if want := "7ecd084e0ef586dc6ee3aad50ee0c7cf7dc16ce2dd6052c352edf60a6b626f14"; matrix != want {
			t.Errorf("trafficmatrix sha256 = %s, want %s", matrix, want)
		}
		if want := "23725ea5ff693633d1481cb20103e73d72f4973caa33c781ee34fec2bc0283e9"; exposition != want {
			t.Errorf("exposition sha256 = %s, want %s", exposition, want)
		}
	})
	t.Run("dynamic", func(t *testing.T) {
		sc := dynamicScenario()
		tel := telemetry.New()
		sc.TelemetryCollector = tel
		res, err := remapped(sc, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrations == 0 {
			t.Error("no node moved; the remapped matrix is not pinned")
		}
		var cross []int64
		for _, s := range res.Segments {
			cross = append(cross, s.CrossEngineBytes)
		}
		if got, want := fmt.Sprint(cross), "[104890368 353247232 215990272 282574848 213155840 533774336]"; got != want {
			t.Errorf("segment cross-engine bytes = %s, want %s", got, want)
		}
		matrix, exposition := telemetryPins(t, tel)
		if want := "3f7e35920c8662ae0eef77d2bc45a0476082682a89e314a56090fdc57ab36b1e"; matrix != want {
			t.Errorf("trafficmatrix sha256 = %s, want %s", matrix, want)
		}
		if want := "64ae992723a95ec74d275eda2b70b2b828883fb8afe3da640515676201508d3a"; exposition != want {
			t.Errorf("exposition sha256 = %s, want %s", exposition, want)
		}
	})
}

// TestTelemetryManyEnginesPinned pins the /metrics body a scrape reads after
// a static TOP run on Campus over 12 engines with finite buffers: drops are
// counted, and engine "10" sorts before engine "2" in every labelled family,
// as the rendered label sets order them. The SHA-256 was recorded at commit
// 2d5e23a, while the exposition was still kept in a generic registry.
func TestTelemetryManyEnginesPinned(t *testing.T) {
	sc := dynamicScenario()
	sc.Engines = 12
	in, err := sc.MappingInput()
	if err != nil {
		t.Fatal(err)
	}
	top, err := mapping.TopMap(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.emuConfig(top)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BufferBytes = 256 << 10
	tel := telemetry.New()
	res, err := emu.Run(cfg, emu.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedPackets == 0 {
		t.Error("the buffered run dropped nothing; drops are not pinned")
	}
	rec := httptest.NewRecorder()
	mux := http.NewServeMux()
	telemetry.Mount(tel)(mux)
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `massf_engine_charges_total{engine="10"}`) {
		t.Fatal("the exposition has no engine 10; the label order is not pinned")
	}
	sum := sha256.Sum256([]byte(body))
	if got, want := hex.EncodeToString(sum[:]), "ca2f24267c8b5175e2141d3bd8cea8c8b8eb15ad8e55300add9db536c2d62a83"; got != want {
		t.Errorf("exposition sha256 = %s, want %s", got, want)
	}
}
