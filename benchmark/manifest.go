package main

import (
	"bytes"
	"encoding/json"
)

// manifest mirrors BENCHMARK.json: exactly the keys the driver's
// contract names. What the contract has no key for — GOMAXPROCS, cycle
// shape, statistic per metric, why a metric was demoted — is in
// README.md's tables, written from the same workload and metric tables.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestBounded  `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestBounded struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, e := range contract(false) {
		m.EndToEnd = append(m.EndToEnd, manifestBounded{manifestMetric{e.Name, e.Unit, e.Better}, e.Bound})
	}
	for _, p := range contract(true) {
		m.PerLayer = append(m.PerLayer, manifestMetric{p.Name, p.Unit, p.Better})
	}
	return m
}

// manifestJSON is the exact content of the committed BENCHMARK.json.
func manifestJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		panic(err) // plain structs of strings and numbers cannot fail to encode
	}
	return buf.Bytes()
}
