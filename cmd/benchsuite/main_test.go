package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func entry(name string, nsOp float64, allocs int64) benchEntry {
	return benchEntry{Name: name, N: 1, NsOp: nsOp, AllocsOp: allocs}
}

func writeBenchFile(t *testing.T, f benchFile) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadBenchFileRejectsBadShape: every malformed file is refused on
// load, so the -compare gate fails on it whichever side it is on.
func TestLoadBenchFileRejectsBadShape(t *testing.T) {
	good := writeBenchFile(t, benchFile{Schema: benchSchema, Benchmarks: []benchEntry{entry("a", 1, 0)}})
	if _, err := loadBenchFile(good); err != nil {
		t.Fatalf("well-formed file rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		file benchFile
	}{
		{"wrong schema", benchFile{Schema: "kagen-bench/v0", Benchmarks: []benchEntry{entry("a", 1, 0)}}},
		{"empty list", benchFile{Schema: benchSchema}},
		{"duplicate name", benchFile{Schema: benchSchema, Benchmarks: []benchEntry{entry("a", 1, 0), entry("a", 2, 0)}}},
		{"negative field", benchFile{Schema: benchSchema, Benchmarks: []benchEntry{entry("a", 1, -1)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := writeBenchFile(t, tc.file)
			if _, err := loadBenchFile(bad); err == nil {
				t.Error("loadBenchFile accepted it")
			}
			if err := compareBenchFiles(bad, good, 100, true); err == nil {
				t.Error("-compare accepted it as the baseline")
			}
			if err := compareBenchFiles(good, bad, 100, true); err == nil {
				t.Error("-compare accepted it as the new run")
			}
		})
	}
}

// TestCompareBenchFiles pins the CI gate at the settings CI runs it with
// (-threshold 100) and the ns/op gate that -allocs-only switches off.
func TestCompareBenchFiles(t *testing.T) {
	for _, tc := range []struct {
		name       string
		old, new   []benchEntry
		allocsOnly bool
		wantErr    bool
	}{
		{"allocs 0 to 1 within the slack of 2", []benchEntry{entry("a", 100, 0)}, []benchEntry{entry("a", 100, 1)}, true, false},
		{"allocs 10 to 25 beyond 100% plus 2", []benchEntry{entry("a", 100, 10)}, []benchEntry{entry("a", 100, 25)}, true, true},
		{"ns per op tripled", []benchEntry{entry("a", 100, 0)}, []benchEntry{entry("a", 300, 0)}, false, true},
		{"ns per op tripled, allocs only", []benchEntry{entry("a", 100, 0)}, []benchEntry{entry("a", 300, 0)}, true, false},
		{"rows in one file only", []benchEntry{entry("a", 100, 0), entry("gone", 1, 0)},
			[]benchEntry{entry("a", 100, 0), entry("added", 1e9, 1000)}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldPath := writeBenchFile(t, benchFile{Schema: benchSchema, Benchmarks: tc.old})
			newPath := writeBenchFile(t, benchFile{Schema: benchSchema, Benchmarks: tc.new})
			err := compareBenchFiles(oldPath, newPath, 100, tc.allocsOnly)
			if (err != nil) != tc.wantErr {
				t.Errorf("compareBenchFiles: err %v, want error %v", err, tc.wantErr)
			}
		})
	}
}
