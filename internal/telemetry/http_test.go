package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "ups").Add(7)
	code, body, hdr := get(t, NewObsMux(r, nil, nil), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "up_total 7") {
		t.Errorf("metrics body missing counter:\n%s", body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Gauge("live", "liveness").Set(1)
	code, body, hdr := get(t, NewObsMux(r, nil, nil), "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, `"live": 1`) {
		t.Errorf("json body missing gauge:\n%s", body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
}

func TestPprofEndpoint(t *testing.T) {
	code, body, _ := get(t, NewObsMux(nil, nil, nil), "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index should list profiles:\n%.200s", body)
	}
}

func TestNilRegistryEndpointsServe(t *testing.T) {
	code, body, _ := get(t, NewObsMux(nil, nil, nil), "/metrics")
	if code != http.StatusOK || body != "" {
		t.Errorf("nil registry /metrics = %d %q, want 200 with empty body", code, body)
	}
}
