#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a Go module
# of its own) and hands it the arguments. Everything it writes —
# binaries, the Go build cache, traces — stays under bench/out/, so the
# checkout is the only place touched. `go` compiles repro/... from the
# parent directory (see go.mod's replace); without the repository around
# it the build fails and so does this script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/bin
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local
go build -o out/bin/bench .
exec out/bin/bench "$@"
