#!/bin/sh
# bench/coldstudy.sh — cold-study latency across fidelity modes.
#
# Runs the same uncached application × technology sweep in exact and phase
# fidelity and writes BENCH_coldstudy.json in the repo root with per-mode
# latency, phase mode's speedup over exact, and the SOFR-MTTF deviation
# phase mode introduces. Phase mode must deliver its speedup within the
# documented accuracy bound; pass extra flags (e.g. -check -min-speedup 4)
# to enforce thresholds.
#
# Usage: ./bench/coldstudy.sh [instructions] [extra coldstudy flags...]
#        (default 2000000)
set -eu

N="${1:-2000000}"
[ "$#" -gt 0 ] && shift
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cd "$ROOT"
go run ./bench/coldstudy -n "$N" -out "$ROOT/BENCH_coldstudy.json" "$@"
