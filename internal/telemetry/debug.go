package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves the registry's current Snapshot as a flat
// expvar-style JSON object, one name → number pair per metric (json
// renders map keys sorted).  It is exported so services embedding the
// engines can mount it on their own mux.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot().Metrics())
	})
}

// DebugMux builds the debug endpoint's routing: /metrics with the
// counter snapshot plus the standard net/http/pprof profile handlers,
// so in-flight scaling runs can be profiled without global
// http.DefaultServeMux side effects.
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the opt-in debug HTTP endpoint on addr (the
// faultcov -debug-addr flag) and returns the bound address — pass a
// ":0" port to let the kernel pick one.  The server runs until the
// process exits; campaign metrics are process-lifetime counters, so
// there is nothing to flush on shutdown.
func ServeDebug(addr string, r *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: DebugMux(r)}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
