package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// integer timeout) is parsed in one pass; every pixel goes through
// strconv.ParseFloat(s, 32), the call encoding/json makes, so its bits
// are the same. Any other body goes, as the same bytes, to
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
		j, _ := scanNumber(b, i)
		if j == i {
			return i, false
		}
		f, err := strconv.ParseFloat(string(b[i:j]), 32)
		if err != nil {
			return i, false
		}
		v = append(v, float32(f))
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
	j, isInt := scanNumber(b, i)
	if j == i || !isInt {
		return i, false
	}
	n, err := strconv.ParseInt(string(b[i:j]), 10, strconv.IntSize)
	if err != nil {
		return i, false
	}
	req.TimeoutMs = int(n)
	return j, true
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

// scanNumber returns the end of the JSON number at b[i:] (i itself when
// there is none) and whether it has neither fraction nor exponent.
func scanNumber(b []byte, i int) (end int, isInt bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j == len(b):
		return i, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j+1)
	default:
		return i, false
	}
	isInt = true
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return i, false
		}
		j, isInt = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return i, false
		}
		j, isInt = k, false
	}
	return j, isInt
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
