package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"repro/internal/libm"
	"repro/internal/pipeline"
)

// FuzzBulkWire drives the bulk endpoint's two decoders with adversarial
// bytes. The fuzzed bytes are tried both as a frame off the wire and as
// the payload of a correctly sealed frame — the frame checksum rejects
// nearly every raw mutation, so sealing is what lets the fuzzer reach the
// payload decoders. The invariants:
//
//   - decodeBulkRequest and decodeBulkResponse never panic;
//   - a frame either decoder accepts re-encodes to the identical bytes
//     (the codec is canonical), and re-decodes to an equal message.
//
// The seeds under testdata/fuzz/FuzzBulkWire pin the regression cases:
// lengths past the end of the payload, a negative length, an unknown
// response status and trailing bytes.
func FuzzBulkWire(f *testing.F) {
	f.Add(encodeBulkRequest(bulkRequest{ID: 7, Func: "log2", Bits: 16, Exp: 8, Mode: "rn",
		Inputs: []uint64{16512, 16520}}))
	f.Add(encodeBulkResponse(bulkResponse{ID: 7, Status: bulkOK, Outputs: []uint64{16384, 16390}}))
	f.Add(encodeBulkResponse(bulkResponse{ID: 9, Status: bulkErr, Code: "serve-overload", Errmsg: "queue full"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, pipeline.Seal(bulkCodecName, bulkCodecVersion, data)} {
			if req, err := decodeBulkRequest(frame); err == nil {
				re := encodeBulkRequest(req)
				if !bytes.Equal(re, frame) {
					t.Fatalf("request re-encode differs from the frame")
				}
				if req2, err := decodeBulkRequest(re); err != nil || !reflect.DeepEqual(req2, req) {
					t.Fatalf("request re-decode: err=%v got %+v want %+v", err, req2, req)
				}
			}
			if resp, err := decodeBulkResponse(frame); err == nil {
				re := encodeBulkResponse(resp)
				if !bytes.Equal(re, frame) {
					t.Fatalf("response re-encode differs from the frame")
				}
				if resp2, err := decodeBulkResponse(re); err != nil || !reflect.DeepEqual(resp2, resp) {
					t.Fatalf("response re-decode: err=%v got %+v want %+v", err, resp2, resp)
				}
			}
		}
	})
}

// FuzzEvalHTTP posts arbitrary bodies to POST /eval through the server's
// own handler over the baked-in tables. The invariants:
//
//   - the handler never panics and never answers 500 or the catch-all
//     "internal" code: every bad body is a typed 4xx;
//   - a 200 response carries exactly one output per input, each the bits
//     libm's batch kernel gives for it.
//
// The seeds under testdata/fuzz/FuzzEvalHTTP pin a valid request, an
// unknown function, a format wider than the tables, an input that is not
// a bit pattern of its format, and truncated JSON.
func FuzzEvalHTTP(f *testing.F) {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := s.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("status %d with a body that is not the error envelope: %q", rec.Code, rec.Body)
			}
			if rec.Code >= 500 || eb.Error.Code == "internal" {
				t.Fatalf("status %d code %q for body %q: %s", rec.Code, eb.Error.Code, body, eb.Error.Message)
			}
			return
		}
		var resp struct {
			Outputs []uint64 `json:"outputs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", rec.Body, err)
		}
		// The handler decoded the same body the same way to answer 200.
		var p evalPayload
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
			t.Fatalf("200 for a body the payload decoder rejects: %v", err)
		}
		req, err := parseRequest(p)
		if err != nil {
			t.Fatalf("200 for a request parseRequest rejects: %v", err)
		}
		if len(resp.Outputs) != len(req.Inputs) {
			t.Fatalf("%d outputs for %d inputs", len(resp.Outputs), len(req.Inputs))
		}
		xs := make([]float64, len(req.Inputs))
		for i, b := range req.Inputs {
			xs[i] = req.Out.Decode(b)
		}
		want := make([]uint64, len(xs))
		if err := libm.EvalBatch(req.Fn, want, xs, req.Out, req.Mode); err != nil {
			t.Fatalf("libm.EvalBatch after a 200: %v", err)
		}
		if !slices.Equal(resp.Outputs, want) {
			t.Fatalf("outputs %v, libm %v", resp.Outputs, want)
		}
	})
}
