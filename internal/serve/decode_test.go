package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchBody is a /v1/predict body shaped like the repo benchmark's: one
// 3×32×32 image of seeded N(0,1) pixels, marshalled by encoding/json.
func benchBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	img := make([]float32, 3*32*32)
	for i := range img {
		img[i] = float32(rng.NormFloat64())
	}
	body, err := json.Marshal(PredictRequest{Image: img})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// predictRequest is a POST carrying body that can be replayed without
// allocating: reset() rewinds the reader under the same Body.
type predictRequest struct {
	r    *http.Request
	rd   *bytes.Reader
	body []byte
}

func newPredictRequest(body []byte) *predictRequest {
	pr := &predictRequest{rd: bytes.NewReader(body), body: body}
	pr.r = httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	pr.r.Body = io.NopCloser(pr.rd)
	pr.r.ContentLength = int64(len(body))
	return pr
}

func (pr *predictRequest) reset() *http.Request {
	pr.rd.Reset(pr.body)
	return pr.r
}

// samePredict reports whether a and b decode the same body to the same
// request, comparing pixels bit for bit.
func samePredict(a, b PredictRequest) bool {
	if a.Model != b.Model || a.TimeoutMs != b.TimeoutMs ||
		len(a.Image) != len(b.Image) || (a.Image == nil) != (b.Image == nil) {
		return false
	}
	for i := range a.Image {
		if math.Float32bits(a.Image[i]) != math.Float32bits(b.Image[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodePredict checks DecodePredict's body decoder against
// encoding/json on the same bytes: both accept or both reject, with the
// same message, and an accepted body decodes to the same fields. A body
// the one-pass parse accepts must be one encoding/json accepts too.
func FuzzDecodePredict(f *testing.F) {
	for _, req := range []PredictRequest{
		{Image: []float32{0.5, -1.25, 3e-7, 1e21, float32(math.Copysign(0, -1))}},
		{Model: "vgg19", Image: []float32{1, 2, 3}, TimeoutMs: 250},
		{Model: "m", Image: []float32{math.MaxFloat32, math.SmallestNonzeroFloat32}},
	} {
		body, _ := json.Marshal(req)
		f.Add(body)
	}
	for _, s := range []string{
		`{"image":[-0]}`,
		`{"image":[1e-7,2.5E+3,-1e-45,3.4028235e38,-0.0e-0]}`,
		" \t\r\n{ \"image\" : [ 1 , 2 ] , \"timeout_ms\" : -0 }\n",
		`{"image":[1,null,2]}`,
		`{"image":null}`,
		`{"IMAGE":[1]}`,
		`{image:[1]}`,
		`{"image":[1],"image":[2]}`,
		`{"model":"a","model":"b","image":[]}`,
		`{"image":[1]}xyz`,
		`{"image":[1]}{}`,
		"{\"model\":\"\xff\",\"image\":[1]}",
		`{"model":"ab","image":[1]}`,
		`{"model":"a\"b"}`,
		`{"image":[1e39]}`,
		`{"image":[1e-60]}`,
		`{"timeout_ms":1.5}`,
		`{"timeout_ms":1e3}`,
		`{"timeout_ms":99999999999999999999}`,
		`{"extra":1,"image":[1]}`,
		`{"image":[01]}`,
		`{"image":[1.]}`,
		`{"image":[.5]}`,
		`{"image":[+1]}`,
		`{"image":[-]}`,
		`{"image":[1,]}`,
		`{"image":[1 2]}`,
		`{"image":[0x10,Infinity,1_0]}`,
		`{"image":["1"]}`,
		`{"image":[1],}`,
		`{,"image":[1]}`,
		`{"image":[1,2,`,
		`{}`,
		``,
		`null`,
		`[1]`,
		`hello`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want PredictRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)

		var vals []float32
		var fast PredictRequest
		if parseCanonical(body, &fast, &vals) {
			if wantErr != nil {
				t.Fatalf("one-pass parse accepts %q, encoding/json rejects it: %v", body, wantErr)
			}
			if !samePredict(fast, want) {
				t.Fatalf("one-pass parse of %q = %+v, encoding/json %+v", body, fast, want)
			}
		}

		got, gotErr := decodePredictBody(body, &vals)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decode %q: err %v, encoding/json err %v", body, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("decode %q: err %q, encoding/json err %q", body, gotErr, wantErr)
		case gotErr == nil && !samePredict(got, want):
			t.Fatalf("decode %q = %+v, encoding/json %+v", body, got, want)
		}
	})
}

// TestDecodePredictAllocs: a warm decode of a canonical body allocates
// the image it returns and the body reader's bound, nothing per pixel.
func TestDecodePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	body := benchBody(t)
	pr := newPredictRequest(body)
	w := httptest.NewRecorder()
	if _, code, err := DecodePredict(w, pr.reset(), 3*32*32); err != nil {
		t.Fatalf("decode: %d %v", code, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := DecodePredict(w, pr.reset(), 3*32*32); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm DecodePredict of a canonical body: %v allocations, want ≤ 2", allocs)
	}
}

// BenchmarkDecodePredict decodes the repo benchmark's body shape with
// encoding/json (the decoder it replaced, and still its fallback) and
// with DecodePredict.
func BenchmarkDecodePredict(b *testing.B) {
	body := benchBody(b)
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req PredictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("onepass", func(b *testing.B) {
		pr := newPredictRequest(body)
		w := httptest.NewRecorder()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := DecodePredict(w, pr.reset(), 3*32*32); err != nil {
				b.Fatal(err)
			}
		}
	})
}
