#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless the summed
# `test result:` lines report at least <min> passed tests. A test filter
# that matches nothing passes vacuously, so a step whose point is the
# tests its filter selects states how many it expects.
#
# usage: .github/counted-tests.sh <min> <cargo test arguments...>
set -euo pipefail
min=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" | tee "$log"
ran=$(awk '/^test result:/ { for (i = 1; i < NF; i++) if ($(i + 1) ~ /^passed/) n += $i } END { print n + 0 }' "$log")
if [ "$ran" -lt "$min" ]; then
  echo "::error::cargo test $* ran $ran tests, expected at least $min"
  exit 1
fi
echo "cargo test $* ran $ran tests (at least $min expected)"
