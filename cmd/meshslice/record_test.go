package main

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"

	"meshslice/internal/mesh"
)

// defaultRecord is `meshslice record` with its flag defaults.
func defaultRecord() recordConfig {
	return recordConfig{m: 64, n: 64, k: 64, rows: 4, cols: 4, algo: "meshslice", dataflow: "os", s: 2, block: 2, seed: 1}
}

// canonicalJSON runs cfg and returns the recorder's canonical export.
func canonicalJSON(t *testing.T, cfg recordConfig) ([]byte, *recordResult) {
	t.Helper()
	res, err := runRecord(cfg)
	if err != nil {
		t.Fatalf("invalid invocation: %v", err)
	}
	var buf bytes.Buffer
	if err := res.rec.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestRecord covers the record subcommand's three contracts: a healthy
// export is byte-identical run to run, a lost message surfaces as a typed
// stall naming the blocked edges, and the pipelined schedule reports
// overlapped async ops.
func TestRecord(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*recordConfig)
		check func(t *testing.T, cfg recordConfig)
	}{
		{"healthy-deterministic", func(*recordConfig) {}, func(t *testing.T, cfg recordConfig) {
			a, res := canonicalJSON(t, cfg)
			if res.runErr != nil || !res.ok {
				t.Fatalf("healthy run failed: err=%v ok=%v", res.runErr, res.ok)
			}
			if b, _ := canonicalJSON(t, cfg); !bytes.Equal(a, b) {
				t.Error("two identical runs exported different canonical JSON")
			}
		}},
		{"drop-stalls", func(c *recordConfig) { c.drop = "0:1:1" }, func(t *testing.T, cfg recordConfig) {
			_, res := canonicalJSON(t, cfg)
			var stall *mesh.RecvStallError
			if !errors.As(res.runErr, &stall) {
				t.Fatalf("got %T (%v), want *mesh.RecvStallError", res.runErr, res.runErr)
			}
			if !strings.Contains(stall.Error(), "blocked edges") {
				t.Errorf("stall message does not name the blocked edges: %v", stall)
			}
		}},
		{"pipelined-overlaps", func(c *recordConfig) { c.pipelined, c.s = true, 4 }, func(t *testing.T, cfg recordConfig) {
			_, res := canonicalJSON(t, cfg)
			if res.runErr != nil || !res.ok {
				t.Fatalf("pipelined run failed: err=%v ok=%v", res.runErr, res.ok)
			}
			if !regexp.MustCompile(`overlap [1-9][0-9]*/`).MatchString(res.summary) {
				t.Errorf("summary reports no overlapped ops: %s", res.summary)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultRecord()
			tc.edit(&cfg)
			tc.check(t, cfg)
		})
	}
}

// TestRecordRejectsBadInvocations: flag mistakes are reported as errors
// before anything runs.
func TestRecordRejectsBadInvocations(t *testing.T) {
	for _, edit := range []func(*recordConfig){
		func(c *recordConfig) { c.algo = "bogus" },
		func(c *recordConfig) { c.dataflow = "xs" },
		func(c *recordConfig) { c.algo, c.dataflow = "cannon", "ls" },
		func(c *recordConfig) { c.s = 3 },
		func(c *recordConfig) { c.drop = "0:1" },
		func(c *recordConfig) { c.fail = "x:1" },
	} {
		cfg := defaultRecord()
		edit(&cfg)
		if res, err := runRecord(cfg); err == nil {
			t.Errorf("%+v: accepted, summary %q", cfg, res.summary)
		}
	}
}
