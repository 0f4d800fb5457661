package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"splitcnn/internal/models"
	"splitcnn/internal/serve"
)

// serve_closed / serve_open: the default single-process serving path,
// `splitcnn serve` with no flags, driven over loopback HTTP.

const (
	poolImages = 64
	// clients is the closed-loop client count.
	clients = 2
	// openConns is how many keep-alive connections the open loop
	// dispatches over: enough that a send is almost never held back for
	// want of a free one (with 2, a third to a half of all sends started
	// late, and the loop was half closed).
	openConns = 8
	// openRate is the Poisson arrival rate of serve_open, about half of
	// what serve_closed sustains on the two-core box this was sized on.
	openRate = 100.0
	// warmupRequests precede the timed window (counted in setup_s).
	warmupRequests = 16
)

// serveSpec is the model all three serving workloads share, so their
// rows are comparable: mini VGG-19 (width÷16, BN) on 3×32×32, random
// initialisation, executor batch 8.
func serveSpec() serve.Spec {
	return serve.Spec{
		Name: "vgg19", Arch: "vgg19", MaxBatch: 8,
		Model: models.Config{Classes: 10, InputC: 3, InputH: 32, InputW: 32, WidthDiv: 16, BatchNorm: true},
	}
}

// predictInputs is the generated traffic: the image pool, each image's
// request body, the logits the single-process reference computed for it,
// and which image request i sends.
type predictInputs struct {
	pool   [][]float32
	bodies [][]byte
	refs   [][]float32
	picks  []int
}

// newPredictInputs generates the pool and computes the reference logits
// with serve.Load + Instance.Run, one image at a time — the path every
// response must match bit for bit.
func newPredictInputs(seed int64, spec serve.Spec) (*predictInputs, error) {
	inst, err := serve.Load(spec)
	if err != nil {
		return nil, err
	}
	p := &predictInputs{
		pool:  imagePool(seed, poolImages, inst.ImageLen()),
		picks: pickSequence(seed, 4096, poolImages),
	}
	for _, img := range p.pool {
		body, err := json.Marshal(serve.PredictRequest{Image: img})
		if err != nil {
			return nil, err
		}
		out, err := inst.Run([][]float32{img})
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.refs = append(p.refs, append([]float32(nil), out[0]...))
	}
	return p, nil
}

func (p *predictInputs) pick(i int) int { return p.picks[i%len(p.picks)] }

func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// predictClient is one keep-alive HTTP connection to /v1/predict.
type predictClient struct {
	c   *http.Client
	url string
}

func newPredictClients(base string, n int) []*predictClient {
	cs := make([]*predictClient, n)
	for i := range cs {
		cs[i] = &predictClient{
			c:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			url: base + "/v1/predict",
		}
	}
	return cs
}

func closeClients(cs []*predictClient) {
	for _, c := range cs {
		c.c.CloseIdleConnections()
	}
}

// post sends one body and decodes the answer; status is 0 on a
// transport error.
func (pc *predictClient) post(body []byte) (pr serve.PredictResponse, status int, err error) {
	resp, err := pc.c.Post(pc.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return pr, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return pr, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(&pr)
	return pr, resp.StatusCode, err
}

// httpLoad turns the generated traffic into a doFunc against a live
// /v1/predict and keeps what the responses report about the server side.
type httpLoad struct {
	in      *predictInputs
	clients []*predictClient
	// wantShards, when positive, is the gang size every response must
	// report (dist_gang2).
	wantShards int

	errBox
	statMu  sync.Mutex
	queueMs []float64
	batch   []float64
}

// errBox keeps the last output-check failure seen by any client lane.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// do returns the load's doFunc; with a recorder every request is a span.
func (h *httpLoad) do(rec *recorder) doFunc {
	return func(lane, i int) outcome { return h.request(rec, lane, i) }
}

func (h *httpLoad) request(rec *recorder, lane, i int) outcome {
	img := h.in.pick(i)
	id := rec.start("http.predict", -1, i, lane)
	t0 := time.Now()
	pr, status, err := h.clients[lane].post(h.in.bodies[img])
	t1 := time.Now()
	rec.end(id)
	if err != nil {
		h.fail(fmt.Errorf("request %d: %w", i, err))
		switch status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return opRefused
		}
		return opFailed
	}
	if !bitIdentical(pr.Logits, h.in.refs[img]) {
		h.fail(fmt.Errorf("request %d (image %d): logits %v differ from the reference %v", i, img, pr.Logits, h.in.refs[img]))
		return opFailed
	}
	if h.wantShards > 0 && pr.BatchSize != h.wantShards {
		h.fail(fmt.Errorf("request %d: answered by %d shards, want %d", i, pr.BatchSize, h.wantShards))
		return opFailed
	}
	h.statMu.Lock()
	h.queueMs = append(h.queueMs, float64(pr.QueueUs)/1e3)
	h.batch = append(h.batch, float64(pr.BatchSize))
	h.statMu.Unlock()
	if rec != nil {
		// The response says how long the handler held the request and how
		// long it queued; lay those inside the client's span, centred, as
		// the server's share of it.
		handler := min(time.Duration(pr.LatencyUs)*time.Microsecond, t1.Sub(t0))
		hs := t0.Add((t1.Sub(t0) - handler) / 2)
		hid := rec.add("server.handler", id, i, lane, hs, hs.Add(handler))
		queue := min(time.Duration(pr.QueueUs)*time.Microsecond, handler)
		rec.add("server.queue", hid, i, lane, hs, hs.Add(queue))
	}
	return opOK
}

type serveSession struct {
	in      inputs
	open    bool
	spec    serve.Spec
	traffic *predictInputs

	srv     *serve.Server
	clients []*predictClient
}

func openServe(in inputs, open bool) (session, error) {
	spec := serveSpec()
	traffic, err := newPredictInputs(in.seed, spec)
	if err != nil {
		return nil, err
	}
	return &serveSession{in: in, open: open, spec: spec, traffic: traffic}, nil
}

// setup is what `splitcnn serve` does before it can answer: load the
// registry, start the server with library-default options, and answer
// the warm-up requests.
func (s *serveSession) setup() error {
	reg, err := serve.NewRegistry(s.spec)
	if err != nil {
		return err
	}
	s.srv = serve.NewServer(reg, serve.Options{})
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.clients = newPredictClients("http://"+addr.String(), s.lanes())
	return warmup(&httpLoad{in: s.traffic, clients: s.clients})
}

// warmup sends the warm-up requests over all connections and fails on
// the first wrong answer.
func warmup(h *httpLoad) error {
	for i := 0; i < warmupRequests; i++ {
		if h.request(nil, i%len(h.clients), i) != opOK {
			return h.get()
		}
	}
	return nil
}

func (s *serveSession) teardown() {
	closeClients(s.clients)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.srv, s.clients = nil, nil
}

func (s *serveSession) lanes() int {
	if s.open {
		return openConns
	}
	return clients
}

// drive runs this workload's loop for d against do, numbering ops from
// `from`; round picks the open loop's arrival schedule, so the untraced
// and traced segments of one round see the same arrivals.
func (s *serveSession) drive(d time.Duration, round, from int, do doFunc) opStats {
	if s.open {
		return openLoop(poissonSchedule(s.in.seed+int64(round), openRate, d), openConns, from, do)
	}
	return closedLoop(limit{d: d}, clients, from, do)
}

func (s *serveSession) measure(d time.Duration) (opStats, error) {
	h := &httpLoad{in: s.traffic, clients: s.clients}
	st := s.drive(d, 0, 0, h.do(nil))
	fmt.Fprintf(os.Stderr, "serve: mean batch %.2f, queue wait p50 %.2f ms, %d sends late\n", mean(h.batch), median(h.queueMs), st.late)
	return st, h.get()
}
