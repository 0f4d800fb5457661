package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
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

// jsonNumber matches the longest JSON number (RFC 8259 §6) at the
// start of a string: the grammar parsePixel's scanner must agree with.
var jsonNumber = func() *regexp.Regexp {
	re := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	re.Longest()
	return re
}()

// checkPixel compares parsePixel on s with the longest JSON number at
// its start, parsed by strconv.ParseFloat(s, 32): the same end, the
// same accept/reject decision and the same bits.
func checkPixel(t *testing.T, s string) {
	t.Helper()
	got, end, ok := parsePixel([]byte(s), 0)
	want := len(jsonNumber.FindString(s))
	if end != want {
		t.Fatalf("parsePixel(%q) ends at %d, the JSON number at %d", s, end, want)
	}
	if want == 0 {
		if ok {
			t.Fatalf("parsePixel(%q) accepts no number", s)
		}
		return
	}
	if !json.Valid([]byte(s[:want])) {
		t.Fatalf("%q: the pattern matched %q, which encoding/json rejects", s, s[:want])
	}
	f, err := strconv.ParseFloat(s[:want], 32)
	switch {
	case ok != (err == nil):
		t.Fatalf("parsePixel(%q) ok=%v, strconv err %v", s, ok, err)
	case ok && math.Float32bits(got) != math.Float32bits(float32(f)):
		t.Fatalf("parsePixel(%q) = %v (%#08x), strconv %v (%#08x)",
			s, got, math.Float32bits(got), float32(f), math.Float32bits(float32(f)))
	}
}

// halfway returns the float64 midpoint between f and the next float32
// up, which float64 holds exactly.
func halfway(f float32) float64 {
	return (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
}

// FuzzParsePixel checks parsePixel against strconv.ParseFloat(s, 32) on
// any bytes: see checkPixel.
func FuzzParsePixel(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "0.000000000000000000000000001", "0.0001234", "0e99999999999",
		"1", "-1.5", "0.1", "3.4028235e38", "1e21", "1e-7", "1.17549435e-38",
		"1.1754943508222875e-38", "1.1754942e-38", "1e-45", "1.401298464324817e-45",
		"340282356779733661637539395458142568448",     // MaxFloat32 + ½ ulp: overflows
		"340282356779733661637539395458142568447",     // just under: MaxFloat32
		"3.40282356779733661637539395458142568448e38", // the same, as a fraction
		"1234567890123456789", "12345678901234567890", "9007199254740993",
		"1.234567890123456789e5", "1.2345678901234567890e5",
		"1e22", "1e23", "1e-22", "1e-23", "4.5e22", "4.5e-22", "123456789e-22", "123456789e23",
		"1.00000005960464477539", "1.0000000596046448", "16777217", "16777217.000000001",
		"-", "-x", "01", "1.", ".5", "+1", "1e", "1e+", "1.e5", "1.5E-3x", "1_0", "0x10", "Infinity", "NaN",
	} {
		f.Add(s)
	}
	for _, x := range []float32{1, 0.1, 3.3, 1e-30, 1e30, math.MaxFloat32 / 2, 0x1p-126, 7.006492e-46} {
		m := halfway(x)
		for d := 14; d <= 18; d++ {
			f.Add(strconv.FormatFloat(m, 'e', d, 64))
		}
	}
	f.Fuzz(checkPixel)
}

// TestParsePixelMatchesStrconv runs checkPixel over a seeded mix of
// 10⁶ strings (10⁵ under the race detector): encoding/json's float32
// output, random float32 bit patterns in shortest form, float64s scaled
// by 10^±20 in 17 digits, and decimals of 15–19 digits near float32
// halfway points, each signed at random.
func TestParsePixelMatchesStrconv(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(45))
	buf := make([]byte, 0, 64)
	randFloat32 := func() float32 {
		for {
			if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	}
	for i := 0; i < n; i++ {
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		switch i % 4 {
		case 0:
			b, err := json.Marshal(float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))))
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, b...)
		case 1:
			buf = strconv.AppendFloat(buf, math.Abs(float64(randFloat32())), 'g', -1, 32)
		case 2:
			buf = strconv.AppendFloat(buf, rng.Float64()*math.Pow(10, float64(rng.Intn(41)-20)), 'g', 17, 64)
		case 3:
			m := halfway(float32(math.Abs(float64(randFloat32()))))
			if rng.Intn(2) == 0 {
				buf = strconv.AppendFloat(buf, m, 'g', -1, 64)
			} else {
				buf = strconv.AppendFloat(buf, m, 'e', 14+rng.Intn(5), 64)
			}
		}
		checkPixel(t, string(buf))
	}
}
