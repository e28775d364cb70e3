#!/usr/bin/env bash
# Runs `go test -run PATTERN -v ARGS...` and fails when an alternative of
# PATTERN selects nothing. On its own `go test -run` exits 0 with "no
# tests to run" when a listed test has been renamed or deleted, so a CI
# step that names tests would pass vacuously from then on.
#
# usage: run-named-tests.sh 'TestA|TestB' [go test flags] packages...
set -euo pipefail

pattern=$1
shift

# -list takes the same regexp as -run; keep only the test names it prints.
listed=$(go test -list "$pattern" "$@" | grep -E '^(Test|Fuzz|Example)' || true)

IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
  if ! grep -Eq -- "$alt" <<<"$listed"; then
    echo "run-named-tests: '$alt' matches no test in: $*" >&2
    exit 1
  fi
done

exec go test -run "$pattern" -v "$@"
