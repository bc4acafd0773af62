#!/usr/bin/env bash
# Full local check: configure, build, test, and smoke-run every bench and
# example at reduced scale (scripts/smoke.sh). Mirrors what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja for fresh configures when available; otherwise (or when
# build/ already holds a cache with some generator) use the default so
# this matches ROADMAP.md's tier-1 command everywhere.
if [ ! -f build/CMakeCache.txt ] && command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir build --output-on-failure

bash scripts/smoke.sh build
echo "all checks passed"
