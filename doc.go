// Package gopilot is a Go reproduction of the pilot-abstraction ecosystem
// from "Methods and Experiences for Developing Abstractions for
// Data-intensive, Scientific Applications" (Luckow & Jha, 2020,
// arXiv:2002.09009): the P* pilot model, one SAGA-style service interface
// over simulated heterogeneous infrastructure (HPC/HTC/cloud/serverless/YARN),
// Pilot-Data, Pilot-Memory, Pilot-MapReduce, Pilot-Streaming, the Mini-App
// experiment framework and the analytical/statistical performance models
// the paper's evaluation rests on.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root-level benchmarks (bench_test.go) regenerate every table and
// figure; `go run ./cmd/experiments` prints them as tables.
package gopilot
