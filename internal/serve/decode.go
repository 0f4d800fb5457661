package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// MaxPredictBody is the largest /v1/predict body accepted for images of
// imageLen values: 64 bytes per value (json.Marshal writes a float32 in
// at most 15, plus its comma) and 4096 for the keys, the model name and
// whitespace. A longer body is answered 413.
func MaxPredictBody(imageLen int) int64 { return 64*int64(imageLen) + 4096 }

// bodyBuf is the per-request scratch of DecodePredict: the body bytes
// and the pixels parsed from them, recycled through bodyPool.
type bodyBuf struct {
	body []byte
	vals []float32
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// DecodePredict reads r's body whole, bounded at MaxPredictBody(imageLen)
// bytes, and decodes it as a PredictRequest. It is the one decoder of
// the /v1/predict body for the single-process server and the router.
// On failure it returns the status to answer with — 413 past the bound,
// 400 otherwise — and the message for the error body.
//
// A body in the canonical form (one object holding only the keys
// "model", "image" and "timeout_ms", spelled exactly, each at most once,
// with an unescaped ASCII model name, JSON numbers as pixels and an
// integer timeout) is parsed in one pass; every pixel gets the bits of
// strconv.ParseFloat(s, 32), the call encoding/json makes (parsePixel).
// Any other body goes, as the same bytes, to
// json.Decoder.Decode, so it is accepted, rejected and worded exactly as
// encoding/json does.
func DecodePredict(w http.ResponseWriter, r *http.Request, imageLen int) (PredictRequest, int, error) {
	limit := MaxPredictBody(imageLen)
	bb := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(bb)
	var err error
	bb.body, err = readBody(http.MaxBytesReader(w, r.Body, limit), bb.body[:0], min(r.ContentLength, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return PredictRequest{}, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return PredictRequest{}, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
	}
	req, err := decodePredictBody(bb.body, &bb.vals)
	if err != nil {
		return PredictRequest{}, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
	}
	return req, 0, nil
}

// readBody appends all of src to buf, first growing it to hold size
// bytes (the Content-Length; -1 when unknown) without reallocating.
func readBody(src io.Reader, buf []byte, size int64) ([]byte, error) {
	buf = slices.Grow(buf, int(max(size, 0))+512)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodePredictBody decodes one whole body: the one-pass parse when the
// body is in the canonical form, encoding/json on the same bytes when it
// is not. vals is the scratch the parse collects pixels into.
func decodePredictBody(body []byte, vals *[]float32) (PredictRequest, error) {
	var req PredictRequest
	if parseCanonical(body, &req, vals) {
		return req, nil
	}
	// A separate variable: handing req itself to encoding/json would
	// move it to the heap on the one-pass path too.
	var slow PredictRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&slow)
	return slow, err
}

// parseCanonical parses a body in the canonical form into req and
// reports whether it was in it. When it returns false req holds a
// partial parse and must be discarded.
func parseCanonical(b []byte, req *PredictRequest, vals *[]float32) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	const seenModel, seenImage, seenTimeout = 1, 2, 4
	seen := 0
	for i < len(b) && b[i] != '}' {
		if seen != 0 {
			if b[i] != ',' {
				return false
			}
			i = skipSpace(b, i+1)
		}
		key, j, ok := rawString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch {
		case string(key) == "image" && seen&seenImage == 0:
			seen |= seenImage
			i, ok = parseImage(b, i, req, vals)
		case string(key) == "model" && seen&seenModel == 0:
			seen |= seenModel
			i, ok = parseModel(b, i, req)
		case string(key) == "timeout_ms" && seen&seenTimeout == 0:
			seen |= seenTimeout
			i, ok = parseTimeout(b, i, req)
		default:
			return false
		}
		if !ok {
			return false
		}
		i = skipSpace(b, i)
	}
	return i < len(b) && skipSpace(b, i+1) == len(b)
}

// parseImage parses the array of numbers at b[i:] into req.Image.
func parseImage(b []byte, i int, req *PredictRequest, vals *[]float32) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	v := (*vals)[:0]
	defer func() { *vals = v }()
	i = skipSpace(b, i+1)
	for i < len(b) && b[i] != ']' {
		if len(v) > 0 {
			if b[i] != ',' {
				return i, false
			}
			i = skipSpace(b, i+1)
		}
		f, j, ok := parsePixel(b, i)
		if !ok {
			return i, false
		}
		v = append(v, f)
		i = skipSpace(b, j)
	}
	if i == len(b) {
		return i, false
	}
	// encoding/json makes an empty, non-nil slice of "[]".
	req.Image = append(make([]float32, 0, len(v)), v...)
	return i + 1, true
}

// parseModel parses the string at b[i:] into req.Model when it needs no
// unescaping and no UTF-8 validation: printable ASCII only.
func parseModel(b []byte, i int, req *PredictRequest) (int, bool) {
	s, j, ok := rawString(b, i)
	if !ok {
		return i, false
	}
	for _, c := range s {
		if c >= 0x80 {
			return i, false
		}
	}
	req.Model = string(s)
	return j, true
}

// parseTimeout parses the integer literal at b[i:] into req.TimeoutMs.
func parseTimeout(b []byte, i int, req *PredictRequest) (int, bool) {
	n := scanNumber(b, i)
	if n.end == i || !n.isInt {
		return i, false
	}
	v, err := strconv.ParseInt(string(b[i:n.end]), 10, strconv.IntSize)
	if err != nil {
		return i, false
	}
	req.TimeoutMs = int(v)
	return n.end, true
}

// rawString returns the contents of the string starting at b[i] and the
// index past its closing quote; ok is false when there is no string
// there or it holds an escape or a control byte.
func rawString(b []byte, i int) (s []byte, end int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20:
			return nil, i, false
		}
	}
	return nil, i, false
}

// number is the JSON number scanNumber reads: its end (the start when
// there is none), whether it has neither fraction nor exponent, and its
// value as ±mant·10^exp when it has at most 19 significant digits.
type number struct {
	end   int
	isInt bool
	neg   bool
	mant  uint64
	exp   int
	long  bool // more than 19 significant digits: mant is void
}

// scanNumber reads the longest JSON number at b[i:]: one pass that
// checks the grammar and collects the digits. A fraction or exponent
// with no digit ends the number before its '.' or 'e'.
func scanNumber(b []byte, i int) number {
	var mant uint64 // every significant digit; void past 19 of them
	exp, nd := 0, 0 // nd counts the significant digits
	j := i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	if j == len(b) || !isDigit(b[j]) {
		return number{end: i}
	}
	if b[j] == '0' {
		j++
	} else {
		k := j
		j, mant = digits(b, j, mant)
		nd = j - k
	}
	isInt := true
	if j+1 < len(b) && b[j] == '.' && isDigit(b[j+1]) {
		isInt = false
		k := j + 1
		if mant == 0 { // leading zeros only scale
			for k < len(b) && b[k] == '0' {
				k++
			}
		}
		dot := j
		j, mant = digits(b, k, mant)
		nd += j - k
		exp -= j - dot - 1
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k, sign := j+1, 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			if b[k] == '-' {
				sign = -1
			}
			k++
		}
		if k < len(b) && isDigit(b[k]) {
			e := 0
			for ; k < len(b) && isDigit(b[k]); k++ {
				if e < 1<<20 { // far past any fast-path exponent
					e = e*10 + int(b[k]-'0')
				}
			}
			j, isInt, exp = k, false, exp+sign*e
		}
	}
	return number{end: j, isInt: isInt, neg: neg, mant: mant, exp: exp, long: nd > 19}
}

// digits folds the digits at b[i:] into m, wrapping past 19 of them,
// and returns the index past the last and the new m.
func digits(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
	}
	return i, m
}

// parsePixel parses the JSON number at b[i:] to the float32 that
// strconv.ParseFloat(s, 32) — encoding/json's call — gives, with its end
// index; ok is false where there is no number or ParseFloat fails.
//
// When the number has at most 19 significant digits, mant < 2⁵³ and
// |exp| ≤ 22, float64(mant) times or over the exact 1e|exp| is one
// correctly rounded operation (Clinger's fast path), and its magnitude
// is 0 or within [1e-22, 2⁵³·1e22) — inside float32's normal range, so
// neither a subnormal nor an overflow can arise. Rounding that float64
// to float32 gives the decimal's own float32 rounding unless the
// float64 lies exactly on a float32 halfway point (its 29 low mantissa
// bits 1<<28), where the decimal may lie on either side of it; such a
// value and every other number go to ParseFloat.
func parsePixel(b []byte, i int) (f float32, end int, ok bool) {
	n := scanNumber(b, i)
	if n.end == i {
		return 0, i, false
	}
	if !n.long && n.mant < 1<<53 && -22 <= n.exp && n.exp <= 22 {
		v := float64(n.mant)
		if n.exp >= 0 {
			v *= pow10[n.exp]
		} else {
			v /= pow10[-n.exp]
		}
		if n.neg {
			v = -v
		}
		const halfway, lowBits = 1 << 28, 1<<29 - 1 // the bits float32 rounds off
		if math.Float64bits(v)&lowBits != halfway {
			return float32(v), n.end, true
		}
	}
	g, err := strconv.ParseFloat(string(b[i:n.end]), 32)
	return float32(g), n.end, err == nil
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
