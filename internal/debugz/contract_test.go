package debugz_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/distserve"
	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
	"splitcnn/internal/train"
)

// spec is a small model every serving process in the contract loads.
var spec = serve.Spec{
	Name: "vgg16", Arch: "vgg16", MaxBatch: 1,
	Model: models.Config{Classes: 10, InputC: 3, InputH: 32, InputW: 32, WidthDiv: 16},
}

func startServer(opts serve.Options) func(t *testing.T) string {
	return func(t *testing.T) string {
		reg, err := serve.NewRegistry(spec)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer(reg, opts)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		return "http://" + addr.String()
	}
}

func startWorker(t *testing.T, cfg distserve.WorkerConfig) *distserve.Worker {
	cfg.Spec = spec
	w, err := distserve.StartWorker("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func startRouter(t *testing.T) string {
	w := startWorker(t, distserve.WorkerConfig{})
	rt, err := distserve.NewRouter(distserve.RouterOptions{Spec: spec, Workers: []string{w.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	return "http://" + addr.String()
}

func startDashboard(pprof bool) func(t *testing.T) string {
	return func(t *testing.T) string {
		d, err := train.StartDashboard("127.0.0.1:0", trace.NewMetrics(), pprof)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return "http://" + d.Addr().String()
	}
}

// TestDebugSurfaceContract holds every process's debug surface to one
// contract: /healthz is JSON with a status, /metricsz negotiates JSON,
// Prometheus and text and carries the runtime.* gauges, /tracez
// answers a JSON 404 when off, /profilez captures a window per
// request (400 on a bad window, 409 while another capture runs, each
// with the JSON error body), and /debug/pprof/ answers only where
// pprof is enabled.
func TestDebugSurfaceContract(t *testing.T) {
	for _, p := range []struct {
		name          string
		start         func(t *testing.T) string
		traced, pprof bool
	}{
		{"server", startServer(serve.Options{}), false, false},
		{"server/all-on", startServer(serve.Options{
			EnablePprof: true, Debug: debugz.Options{TraceSample: 1},
		}), true, true},
		{"router", startRouter, false, false},
		{"worker", func(t *testing.T) string {
			w := startWorker(t, distserve.WorkerConfig{
				DebugAddr: "127.0.0.1:0", Debug: debugz.Options{TraceSample: 1},
			})
			return "http://" + w.DebugAddr()
		}, true, false},
		{"dashboard", startDashboard(false), false, false},
		{"dashboard/pprof", startDashboard(true), false, true},
	} {
		t.Run(p.name, func(t *testing.T) {
			base := p.start(t)
			get := func(path string) (int, string, []byte) {
				t.Helper()
				resp, err := http.Get(base + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header.Get("Content-Type"), body
			}

			code, ct, body := get("/healthz")
			var health struct {
				Status    string   `json:"status"`
				GoVersion string   `json:"go_version"`
				Uptime    *float64 `json:"uptime_seconds"`
			}
			if code != http.StatusOK || ct != "application/json" || json.Unmarshal(body, &health) != nil ||
				health.Status == "" || health.GoVersion == "" || health.Uptime == nil {
				t.Errorf("/healthz: %d %q %s", code, ct, body)
			}

			for _, c := range []struct{ query, ct string }{
				{"", "application/json"},
				{"?format=prom", "text/plain; version=0.0.4; charset=utf-8"},
				{"?format=text", "text/plain; charset=utf-8"},
			} {
				code, ct, body := get("/metricsz" + c.query)
				if code != http.StatusOK || ct != c.ct || (c.query == "" && !json.Valid(body)) {
					t.Errorf("/metricsz%s: %d %q, want 200 %q", c.query, code, ct, c.ct)
				}
			}

			code, _, body = get("/metricsz")
			var snap trace.Snapshot
			if json.Unmarshal(body, &snap) != nil || snap.Gauges["runtime.heap_alloc_bytes"] <= 0 ||
				snap.Gauges["runtime.goroutines"] <= 0 {
				t.Errorf("/metricsz lacks the runtime.* gauges: %d %s", code, body)
			}

			jsonError := func(path string, want int) {
				t.Helper()
				code, ct, body := get(path)
				var e struct {
					Error string `json:"error"`
				}
				if code != want || ct != "application/json" || json.Unmarshal(body, &e) != nil || e.Error == "" {
					t.Errorf("%s: %d %q %s, want a JSON %d", path, code, ct, body, want)
				}
			}
			if p.traced {
				if code, _, body := get("/tracez"); code != http.StatusOK || !json.Valid(body) {
					t.Errorf("/tracez on: %d %s", code, body)
				}
			} else {
				jsonError("/tracez", http.StatusNotFound)
			}

			code, _, body = get("/profilez?format=json&seconds=0.05")
			var prof struct {
				Report *struct {
					WindowSeconds float64 `json:"window_seconds"`
				} `json:"report"`
			}
			if code != http.StatusOK || json.Unmarshal(body, &prof) != nil || prof.Report == nil ||
				prof.Report.WindowSeconds <= 0 {
				t.Errorf("/profilez: %d %s", code, body)
			}
			for _, bad := range []string{"0", "-1", "x", "31", "NaN"} {
				jsonError("/profilez?format=json&seconds="+bad, http.StatusBadRequest)
			}
			if code, _, body := get("/profilez?download=cpu&seconds=0.05"); code != http.StatusOK ||
				len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
				t.Errorf("/profilez?download=cpu: %d, %d bytes, want a gzip profile", code, len(body))
			}

			// A capture that finds another one running answers 409. The
			// long capture (retried should a probe below hold the
			// profiler first) runs until its request is cancelled, which
			// ends its window early.
			ctx, cancel := context.WithCancel(context.Background())
			long := make(chan struct{})
			go func() {
				defer close(long)
				for ctx.Err() == nil {
					req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/profilez?format=json&seconds=30", nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}()
			conflict := false
			for deadline := time.Now().Add(10 * time.Second); !conflict && time.Now().Before(deadline); {
				if code, _, _ := get("/profilez?download=heap"); code != http.StatusOK {
					t.Errorf("/profilez?download=heap during a capture: %d", code)
				}
				code, _, _ := get("/profilez?format=json&seconds=0.01")
				conflict = code == http.StatusConflict
			}
			if conflict {
				jsonError("/profilez?format=json&seconds=0.01", http.StatusConflict)
			} else {
				t.Error("a capture concurrent with a running one never answered 409")
			}
			cancel()
			<-long
			// The cancelled window ends early: a capture succeeds again
			// long before its 30 s would have run out.
			freed := false
			for deadline := time.Now().Add(10 * time.Second); !freed && time.Now().Before(deadline); {
				code, _, _ := get("/profilez?format=json&seconds=0.01")
				freed = code == http.StatusOK
			}
			if !freed {
				t.Error("a cancelled 30 s capture still holds the CPU profiler after 10 s")
			}

			if code, _, _ := get("/debug/pprof/"); (code == http.StatusOK) != p.pprof {
				t.Errorf("/debug/pprof/: %d with pprof %v", code, p.pprof)
			}
		})
	}
}
