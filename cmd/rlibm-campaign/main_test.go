package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestReadPeerOutput drives the subprocess worker protocol parser over
// canned worker stdout.
func TestReadPeerOutput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		out     string
		wantErr bool
		units   int    // want the report to list this many units
		logged  string // want exactly these log lines, newline-joined
		passed  string // want exactly this passthrough output
	}{
		{
			name:  "peer line decoded",
			out:   peerMarker + `{"shard":"1/2","units":[{"func":"cospi","format_bits":10}],"inputs_checked":7}` + "\n",
			units: 1,
		},
		{
			name:   "unit lines logged",
			out:    unitMarker + `{"func":"cospi","format_bits":0}` + "\n" + unitMarker + `{"func":"cospi","format_bits":12,"checked":5,"mismatches":1}` + "\n" + peerMarker + `{"shard":"1/2"}` + "\n",
			logged: "campaign: peer 1: cospi/generate done (checked 0, 0 mismatches)\ncampaign: peer 1: cospi/F12,8 done (checked 5, 1 mismatches)\n",
		},
		{
			name:   "other lines passed through",
			out:    "warming up\n" + peerMarker + `{"shard":"1/2"}` + "\n" + "bye\n",
			passed: "warming up\nbye\n",
		},
		{
			name: "malformed JSON ignored",
			out:  unitMarker + `{"func":` + "\n" + peerMarker + `{"shard":"1/2","units":[{"func":"cospi"}]}` + "\n" + peerMarker + `not json` + "\n",
			// The unit line is dropped unlogged, and the bad second peer
			// line leaves the first one's report in place.
			units: 1,
		},
		{
			name:    "missing peer line",
			out:     unitMarker + `{"func":"cospi","format_bits":10}` + "\n" + "panic: boom\n",
			wantErr: true,
			logged:  "campaign: peer 1: cospi/F10,8 done (checked 0, 0 mismatches)\n",
			passed:  "panic: boom\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged, passed bytes.Buffer
			logf := func(format string, args ...interface{}) { fmt.Fprintf(&logged, format+"\n", args...) }
			rep, err := readPeerOutput(strings.NewReader(tc.out), 1, logf, &passed)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("got report %+v, want an error", rep)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if rep.Shard != "1/2" || len(rep.Units) != tc.units {
					t.Errorf("report shard %q with %d units, want 1/2 with %d", rep.Shard, len(rep.Units), tc.units)
				}
			}
			if logged.String() != tc.logged {
				t.Errorf("logged %q, want %q", logged.String(), tc.logged)
			}
			if passed.String() != tc.passed {
				t.Errorf("passed through %q, want %q", passed.String(), tc.passed)
			}
		})
	}
}

// TestCheckPeerBudget pins which store and budget pairs the driver accepts:
// a budget on a dir: store is refused before any peer starts, with the
// served-store recipe in the message, and every other pair passes through.
func TestCheckPeerBudget(t *testing.T) {
	for _, tc := range []struct {
		url      string
		maxBytes int64
		wantErr  string
	}{
		{url: "dir:/tmp/c", maxBytes: 4096, wantErr: "rlibm-store -store dir:/tmp/c -store-max-bytes 4096"},
		{url: "dir:/tmp/c"},
		{url: "mem:", maxBytes: 4096},
		{url: "", maxBytes: 4096},
		{url: "tcp://127.0.0.1:7070"},
	} {
		err := checkPeerBudget(tc.url, tc.maxBytes)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("checkPeerBudget(%q, %d) = %v, want nil", tc.url, tc.maxBytes, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("checkPeerBudget(%q, %d) = %v, want an error naming %q", tc.url, tc.maxBytes, err, tc.wantErr)
		}
	}
}
