#!/usr/bin/env bash
# Builds the rooftune end-to-end benchmark from the checkout it is run in
# and executes it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temporaries) stays under
# .bench_build/ in the current directory. Without the repository's
# sources beside perfbench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's user configuration and
# telemetry counters inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
