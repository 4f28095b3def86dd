#!/usr/bin/env bash
# The one-command gate: default build + full ctest, sanitizer tier-1,
# source lint, the smpilint paper-scenario sweep, the bgpprof
# observability smoke (profile determinism + invariants), and the
# perfledger suite plus a one-second correctness run of every benchmark
# workload (pinned digests, profile completeness).  Green here means
# shippable.
#
# Usage: scripts/check.sh [--skip-sanitize] [--skip-tsan]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

skip_sanitize=0
skip_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) skip_sanitize=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *) echo "check.sh: unknown option $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> [1/7] default build + full ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j"$jobs"
ctest --preset default -j"$jobs"

if [[ $skip_sanitize -eq 0 ]]; then
  echo "==> [2/7] ASan+UBSan tier-1"
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j"$jobs"
  ctest --preset sanitize -j"$jobs"
else
  echo "==> [2/7] sanitize: skipped"
fi

if [[ $skip_tsan -eq 0 ]]; then
  echo "==> [3/7] TSan tier-1"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$jobs"
  ctest --preset tsan -j"$jobs"
else
  echo "==> [3/7] tsan: skipped"
fi

echo "==> [4/7] source lint"
scripts/lint.sh "$repo_root/build"

echo "==> [5/7] smpilint over the paper scenarios"
"$repo_root/build/tools/smpilint" --group=paper

echo "==> [6/7] bgpprof observability smoke (halo + collectives)"
"$repo_root/build/tools/bgpprof" --only=fig2_halo_isend --selfcheck
"$repo_root/build/tools/bgpprof" --only=fig3_imb_collectives --selfcheck

echo "==> [7/7] perfledger suite + one-second run of every workload"
ledger_build="$repo_root/.bench_build/perfledger"
cmake -S perfledger -B "$ledger_build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$ledger_build" -j"$jobs"
ctest --test-dir "$ledger_build" -j"$jobs" --output-on-failure
ledger_result="$(python3 perfledger/run.py --workload all --seconds 1 \
                   --trace 0 | tail -n 1)"
if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$ledger_result"; then
  echo "check.sh: perfledger run not correct: $ledger_result" >&2
  exit 1
fi

echo "check.sh: all gates green"
