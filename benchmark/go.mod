// feedbench is a module of its own because the benchmark contract wants
// a compiled benchmark to carry its own build file. The repository's
// `go build ./...` and `go test ./...` therefore neither build nor run
// it; it reaches the packages under test through the replace below.
module bistro/benchmark

go 1.22

require bistro v0.0.0

replace bistro => ../
