#!/usr/bin/env bash
# Builds the mclegal request benchmark from source and runs it.
#
#   bash mclbench/run.sh --workload sparse-ispd --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) goes under .bench_build/ in the
# current directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac

if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "mclbench: run from the mclegal repository root (no go.mod/internal here)" >&2
	exit 2
fi

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/mclbench" .) >&2

commit=""
if [[ -e "$root/.git" ]] && command -v git >/dev/null; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
exec "$out/mclbench" -root "$root" -out "$out" -commit "$commit" "$@"
