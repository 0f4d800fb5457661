package debugz_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

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
// Prometheus and text, /tracez and /profilez answer a JSON 404 when
// off, and /debug/pprof/ answers only where pprof is enabled.
func TestDebugSurfaceContract(t *testing.T) {
	for _, p := range []struct {
		name                    string
		start                   func(t *testing.T) string
		traced, profiled, pprof bool
	}{
		{"server", startServer(serve.Options{NoProfiler: true}), false, false, false},
		{"server/all-on", startServer(serve.Options{
			EnablePprof: true, Debug: debugz.Options{TraceSample: 1},
		}), true, true, true},
		{"router", startRouter, false, true, false},
		{"worker", func(t *testing.T) string {
			w := startWorker(t, distserve.WorkerConfig{
				DebugAddr: "127.0.0.1:0", Debug: debugz.Options{TraceSample: 1},
			})
			return "http://" + w.DebugAddr()
		}, true, true, false},
		{"dashboard", startDashboard(false), false, true, false},
		{"dashboard/pprof", startDashboard(true), false, true, true},
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

			for _, c := range []struct {
				path string
				on   bool
			}{{"/tracez", p.traced}, {"/profilez?format=json", p.profiled}} {
				code, ct, body := get(c.path)
				var e struct {
					Error string `json:"error"`
				}
				switch {
				case c.on && (code != http.StatusOK || !json.Valid(body)):
					t.Errorf("%s on: %d %s", c.path, code, body)
				case !c.on && (code != http.StatusNotFound || ct != "application/json" ||
					json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "disabled")):
					t.Errorf("%s off: %d %q %s, want a JSON 404", c.path, code, ct, body)
				}
			}

			if code, _, _ := get("/debug/pprof/"); (code == http.StatusOK) != p.pprof {
				t.Errorf("/debug/pprof/: %d with pprof %v", code, p.pprof)
			}
		})
	}
}
