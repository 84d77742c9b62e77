GO ?= go

.PHONY: build test race bench-smoke bench-harness cluster-race fmt loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l -w .

# Non-test Go lines outside the benchmark harness: the one line count
# simplicity changes report.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l

# One iteration of the full-server experiment benchmarks (E14 ingest
# scaling, E15 historical replay, E16 standby failover, E17
# self-healing failover, E18 channel fan-out, E19 HTTP pull plane,
# E20 plan enrichment placement) as a smoke test that the
# quantitative harness runs end to end. BENCH_10.json at the repo
# root is the tracked record of the last run, diffable across
# changes; CI regenerates and uploads it as an artifact.
bench-smoke:
	$(GO) test -json -run '^$$' -bench 'BenchmarkE1[4589]|BenchmarkE16|BenchmarkE17|BenchmarkE20' -benchtime=1x . | tee BENCH_10.json

# Race-mode pass over the clustering layer and its replication stress
# tests: concurrent group-commit shipping, the seeded failover
# property harness, and the two-node routing tests.
cluster-race:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/server/
	$(GO) test -race -count=1 -run 'TestE16|TestE12StandbyPromotion|TestE17' ./internal/experiments/

# The benchmark harness is its own module (benchmark/go.mod), so the
# root `go build ./...` and `go test ./...` never compile it: an
# internal/ signature change could break feedbench unnoticed.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
