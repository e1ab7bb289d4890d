package main

import (
	"encoding/json"
	"testing"
)

// TestReadBenchShapes pins the -baseline parse contract: current
// {meta, reports} files round-trip with their meta header, and legacy
// bare-array BENCH_*.json files from runs before the header existed
// still load (with hasMeta=false, so no config-drift warnings fire
// against a config that was never recorded).
func TestReadBenchShapes(t *testing.T) {
	current := []byte(`{
		"meta": {"gomaxprocs": 8, "full": true, "workers": 4, "grid_cells": 64, "time_buckets": 16},
		"reports": [
			{"ID": "P2", "Title": "scan", "Pass": true, "Metrics": {"ns_per_op": 123.5}}
		]
	}`)
	bf, hasMeta, err := readBench(current)
	if err != nil {
		t.Fatalf("current shape: %v", err)
	}
	if !hasMeta {
		t.Error("current shape: hasMeta = false, want true")
	}
	if bf.Meta.GoMaxProcs != 8 || bf.Meta.Workers != 4 || !bf.Meta.Full {
		t.Errorf("current shape: meta not preserved: %+v", bf.Meta)
	}
	if len(bf.Reports) != 1 || bf.Reports[0].ID != "P2" || bf.Reports[0].Metrics["ns_per_op"] != 123.5 {
		t.Errorf("current shape: reports not preserved: %+v", bf.Reports)
	}

	legacy := []byte(`[
		{"ID": "P2", "Title": "scan", "Pass": true, "Metrics": {"ns_per_op": 99.0}},
		{"ID": "P8", "Title": "grid", "Pass": true}
	]`)
	bf, hasMeta, err = readBench(legacy)
	if err != nil {
		t.Fatalf("legacy bare-array shape: %v", err)
	}
	if hasMeta {
		t.Error("legacy shape: hasMeta = true, want false (no config to drift-check)")
	}
	if (bf.Meta != benchMeta{}) {
		t.Errorf("legacy shape: meta should be zero, got %+v", bf.Meta)
	}
	if len(bf.Reports) != 2 || bf.Reports[0].Metrics["ns_per_op"] != 99.0 || bf.Reports[1].ID != "P8" {
		t.Errorf("legacy shape: reports not preserved: %+v", bf.Reports)
	}
}

// TestReadBenchRejectsGarbage pins the error path: neither shape
// parses, so the caller sees the JSON error rather than an empty
// baseline that silently compares nothing.
func TestReadBenchRejectsGarbage(t *testing.T) {
	for _, tc := range []string{
		`{"meta": {}}`,    // object shape but no reports array
		`{not json`,       // malformed
		`"just a string"`, // valid JSON, wrong type
	} {
		if _, _, err := readBench([]byte(tc)); err == nil {
			t.Errorf("readBench(%s) = nil error, want parse failure", tc)
		}
	}
}

// TestReadBenchEmptyLegacyArray pins the boundary between the two
// shapes: an empty bare array is a valid (if useless) legacy baseline,
// not an error, and must not be mistaken for the meta'd shape.
func TestReadBenchEmptyLegacyArray(t *testing.T) {
	bf, hasMeta, err := readBench([]byte(`[]`))
	if err != nil {
		t.Fatalf("empty legacy array: %v", err)
	}
	if hasMeta {
		t.Error("empty legacy array: hasMeta = true, want false")
	}
	if len(bf.Reports) != 0 {
		t.Errorf("empty legacy array: %d reports, want 0", len(bf.Reports))
	}
	// Round-trip sanity: what mobench writes today, readBench reads.
	out, err := json.Marshal(benchFile{Meta: benchMeta{Workers: 3}, Reports: bf.Reports})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readBench(out); err != nil {
		t.Fatalf("round-trip of written shape: %v", err)
	}
}
