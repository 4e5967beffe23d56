package serve

import (
	"bytes"
	"reflect"
	"testing"

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
