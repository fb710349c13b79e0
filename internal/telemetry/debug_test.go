package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
)

// TestMetricsHandler: the /metrics document is a flat JSON object
// carrying the snapshot.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Flush(Local{Faults: 12, Reps: 11})
	r.CacheLookup(true)

	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var m map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics document: %v", err)
	}
	if m["faults_presented"] != 12 || m["faults_simulated"] != 11 || m["program_cache_hits"] != 1 {
		t.Errorf("metrics: %v", m)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{
		"arena_fresh", "arena_reuse", "batches", "checkpoint_seconds", "checkpoint_writes",
		"chunks", "collapse_in", "collapse_out", "faults_presented", "faults_simulated",
		"kernel_seconds", "program_cache_hits", "program_cache_misses", "sink_seconds",
		"sink_wait_seconds", "source_wait_seconds", "workers",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("metric names:\n got %v\nwant %v", names, want)
	}
}

// TestServeDebug: the opt-in endpoint binds, serves /metrics, and
// routes the pprof index.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Flush(Local{Faults: 3})
	addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m["faults_presented"] != 3 {
		t.Errorf("metrics over HTTP: %v", m)
	}
	pp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", pp.StatusCode)
	}
}
