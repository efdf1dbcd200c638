#!/bin/sh
# loc.sh — print the two sizes ROADMAP item 2 tracks, over non-test Go
# outside perfbench/ and .bench_build/:
#   lines — every line;
#   code  — the same without blank lines and lines holding only a //
#           comment.
#
#	./scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

src() {
	find . -name '*.go' ! -name '*_test.go' \
		! -path './perfbench/*' ! -path './.bench_build/*' -exec cat {} +
}

echo "lines $(src | wc -l)"
echo "code  $(src | grep -v '^[[:space:]]*$' | grep -cv '^[[:space:]]*//')"
