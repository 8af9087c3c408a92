package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// HTTP exposition: Handler and JSONHandler serve one registry; NewObsMux
// bundles them, the span and flight endpoints, and net/http/pprof under the
// conventional paths, giving a live peer (cmd/skypeer) its /metrics +
// /debug/pprof endpoint in one call:
//
//	go http.ListenAndServe(addr, telemetry.NewObsMux(reg, nil, nil))

// Handler serves the registry in the Prometheus text exposition format.
// A nil registry serves an empty (but valid) exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry as a JSON snapshot.
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// TraceHandler serves a span log as JSONL, the format cmd/skytrace pulls
// from each peer's /trace.jsonl and merges. A nil log serves an empty body.
func TraceHandler(l *SpanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = l.WriteJSONL(w)
	})
}

// FlightHandler serves a flight recorder's current ring as JSONL. A nil
// recorder serves an empty body.
func FlightHandler(f *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = f.WriteJSONL(w)
	})
}

// NewObsMux returns a mux serving /metrics (Prometheus text), /metrics.json
// (JSON snapshot), the standard /debug/pprof profiling endpoints, and the
// tracing endpoints: /trace.jsonl serves the span log and /flight.jsonl the
// flight recorder (both serve empty bodies when nil, so callers wire what
// they have).
func NewObsMux(r *Registry, spans *SpanLog, flight *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/metrics.json", JSONHandler(r))
	mux.Handle("/trace.jsonl", TraceHandler(spans))
	mux.Handle("/flight.jsonl", FlightHandler(flight))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
