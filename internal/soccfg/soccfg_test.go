package soccfg

import (
	"strings"
	"testing"
)

// The satellite regression: a typo'd knob must be an error naming the
// path and suggesting the real field — before this layer existed,
// "spm_bank" silently simulated the default bank count.
func TestUnknownFieldTypoPaths(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			name: "flat spm_bank typo",
			doc:  `{"kernel": "gemm", "spm_bank": 8}`,
			want: `spm_bank: unknown field (did you mean "spm_banks"?)`,
		},
		{
			name: "nested accelerator typo",
			doc: `{"version": 1, "soc": {"accelerators": [
				{"name": "a", "kernel": "gemm", "read_ports": 2},
				{"name": "b", "kernel": "gemm", "raed_ports": 2}
			]}}`,
			want: `soc.accelerators[1].raed_ports: unknown field (did you mean "read_ports"?)`,
		},
		{
			name: "typo inside cluster",
			doc:  `{"version": 1, "soc": {"clusters": [{"name": "c", "shared_spm_byte": 1024}], "accelerators": [{"name": "a", "kernel": "gemm"}]}}`,
			want: `soc.clusters[0].shared_spm_byte: unknown field (did you mean "shared_spm_bytes"?)`,
		},
		{
			name: "unrelated junk lists known fields",
			doc:  `{"kernel": "gemm", "zzzzqqq": 1}`,
			want: `zzzzqqq: unknown field (known fields:`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q\nwant substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"missing kernel", `{}`, "needs kernel or ir_file"},
		{"bad preset", `{"kernel": "gemm", "preset": "tiny"}`, `preset: unknown preset "tiny"`},
		{"bad memory", `{"kernel": "gemm", "memory": "dram"}`, `memory: unknown mode "dram"`},
		{"bad fu class", `{"kernel": "gemm", "fu_limits": {"fp_blender": 1}}`, `fu_limits.fp_blender: unknown FU class`},
		{"cache line not pow2", `{"kernel": "gemm", "memory": "cache", "cache_line": 48}`, "cache_line: 48 must be a power of two"},
		{"kernel and ir_file", `{"kernel": "gemm", "ir_file": "x.ll", "workload": "gemm"}`, "mutually exclusive"},
		{"ir_file without workload", `{"ir_file": "x.ll"}`, "workload: ir_file needs a workload"},
		{"version 2", `{"version": 2, "kernel": "gemm"}`, "unsupported version 2"},
		{"v1 without soc", `{"version": 1}`, "version 1 requires a soc object"},
		{"soc without version", `{"soc": {"accelerators": [{"name": "a", "kernel": "gemm"}]}}`, `topology form requires "version": 1`},
		{"no accelerators", `{"version": 1, "soc": {"accelerators": []}}`, "at least one accelerator required"},
		{
			"dangling shared_spm",
			`{"version": 1, "soc": {"spms": [{"name": "shared", "bytes": 1024}],
				"accelerators": [{"name": "a", "kernel": "gemm", "shared_spm": "sharde"}]}}`,
			`soc.accelerators[0].shared_spm: no SPM named "sharde"`,
		},
		{
			"dangling stream producer",
			`{"version": 1, "soc": {"accelerators": [{"name": "a", "kernel": "gemm"}, {"name": "b", "kernel": "relu", "size": [64]}],
				"streams": [{"name": "s", "producer": "x", "consumer": "b", "buffer_bytes": 256}]}}`,
			`soc.streams[0].producer: no accelerator named "x"`,
		},
		{
			"duplicate accelerator",
			`{"version": 1, "soc": {"accelerators": [{"name": "a", "kernel": "gemm"}, {"name": "a", "kernel": "gemm"}]}}`,
			`soc.accelerators[1].name: duplicate accelerator "a"`,
		},
		{
			"size and preset",
			`{"kernel": "gemm", "preset": "small", "size": [8]}`,
			"size and preset are mutually exclusive",
		},
		{
			"spm and shared_spm",
			`{"version": 1, "soc": {"spms": [{"name": "s", "bytes": 64}],
				"accelerators": [{"name": "a", "kernel": "gemm", "spm_bytes": 64, "shared_spm": "s"}]}}`,
			"spm_bytes and shared_spm are mutually exclusive",
		},
		{
			"spm arena oversubscribed",
			`{"version": 1, "soc": {"spms": [{"name": "a", "bytes": 8388608}, {"name": "b", "bytes": 8388608}],
				"accelerators": [{"name": "x", "kernel": "gemm", "shared_spm": "a"}]}}`,
			"soc.spms[1].bytes: 8388608 bytes overflow the 8 MiB SPM arena",
		},
		{
			"out of range ports",
			`{"kernel": "gemm", "read_ports": 100000}`,
			"read_ports: 100000 out of range",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q\nwant substring %q", err, tc.want)
			}
		})
	}
}

func TestParseValidConfigs(t *testing.T) {
	docs := []string{
		`{"kernel": "gemm", "preset": "small", "clock_mhz": 100, "read_ports": 2,
		  "write_ports": 2, "memory": "spm", "spm_latency": 2, "spm_banks": 4, "spm_ports": 2}`,
		`{"kernel": "gemm", "memory": "cache", "cache_bytes": 4096, "cache_line": 64, "cache_assoc": 2, "cache_mshrs": 8}`,
		`{"ir_file": "gemm.ll", "entry": "gemm", "workload": "gemm", "preset": "small"}`,
		`{"version": 1, "soc": {
			"dram_mb": 16,
			"spms": [{"name": "shared", "bytes": 65536, "latency": 2, "banks": 4, "ports": 4}],
			"accelerators": [
				{"name": "conv", "kernel": "conv2d", "size": [12, 12], "shared_spm": "shared"},
				{"name": "relu", "kernel": "relu", "size": [100], "shared_spm": "shared"},
				{"name": "pool", "kernel": "maxpool", "size": [10, 10], "shared_spm": "shared"}
			]}}`,
		`{"version": 1, "soc": {
			"clusters": [{"name": "cnn", "shared_spm_bytes": 65536}],
			"llc": {"bytes": 65536, "line": 64, "assoc": 4},
			"accelerators": [
				{"name": "a", "kernel": "gemm", "size": [8], "cluster": "cnn", "shared_spm": "cluster"},
				{"name": "b", "kernel": "relu", "size": [64], "spm_bytes": 8192, "global": true}
			],
			"dmas": [{"name": "dma0", "kind": "block"}],
			"streams": [{"name": "ab", "producer": "a", "consumer": "b", "buffer_bytes": 1024}]}}`,
	}
	for i, doc := range docs {
		if _, err := Parse([]byte(doc)); err != nil {
			t.Errorf("doc %d: %v", i, err)
		}
	}
}

// Emit must be idempotent: parse -> emit -> parse -> emit is a fixpoint.
func TestEmitRoundTrip(t *testing.T) {
	doc := `{"version":1,"soc":{"spms":[{"name":"shared","bytes":65536}],
		"accelerators":[{"name":"conv","kernel":"conv2d","size":[12,12],"shared_spm":"shared"}]}}`
	c1, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c1.Emit()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(e1)
	if err != nil {
		t.Fatalf("emitted config does not re-parse: %v\n%s", err, e1)
	}
	e2, err := c2.Emit()
	if err != nil {
		t.Fatal(err)
	}
	if string(e1) != string(e2) {
		t.Fatalf("emit not idempotent:\nfirst:\n%s\nsecond:\n%s", e1, e2)
	}
}

// FuzzSoCConfig: arbitrary bytes must yield an error or a valid Config —
// never a panic. The service layer parses untrusted config documents.
func FuzzSoCConfig(f *testing.F) {
	f.Add([]byte(`{"kernel": "gemm"}`))
	f.Add([]byte(`{"version": 1, "soc": {"accelerators": [{"name": "a", "kernel": "gemm"}]}}`))
	f.Add([]byte(`{"kernel": "gemm", "spm_bank": 8}`))
	f.Add([]byte(`{"version": 1, "soc": {"streams": [{"producer": "x"}], "accelerators": []}}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`{"fu_limits": {"": -1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		// A config that parses must validate (Parse validates) and emit.
		if _, err := c.Emit(); err != nil {
			t.Fatalf("valid config failed to emit: %v", err)
		}
	})
}
