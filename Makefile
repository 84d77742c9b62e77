GO ?= go

.PHONY: build test race bench-harness cluster-race fmt loc

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

# Race-mode pass over the clustering layer and its replication stress
# tests: concurrent group-commit shipping, the standby's streamed spool
# (stalled, oversized and refused payloads; the allocation pin skips
# itself under -race), the seeded failover property harness, and the
# two-node routing tests.
cluster-race:
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/server/
	$(GO) test -race -count=1 -run 'TestE16|TestE12StandbyPromotion|TestE17' ./internal/experiments/

# The benchmark harness is its own module (benchmark/go.mod), so the
# root `go build ./...` and `go test ./...` never compile it: an
# internal/ signature change could break feedbench unnoticed.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
