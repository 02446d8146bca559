#!/usr/bin/env bash
# Builds the system under test (hcappsim, hcapp-serve) and the benchmark
# program from the checkout in the current directory, then runs the program
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hcappsim" ] || [ ! -d "$root/cmd/hcapp-serve" ]; then
  echo "perfbench: run from the repository root (no hcapp sources in $root)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/" ./cmd/hcappsim ./cmd/hcapp-serve >&2
go build -C perfbench -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/perfbench" "$@"
