#!/usr/bin/env bash
# Checks every entry of perfbench/digests.json (each workload at each
# recorded seed) against the outcome digest a built nexit_perfbench prints
# with --digest-only, which runs no timed passes. Run from the repo root
# after perfbench/run.py has built the binary:
#
#   tools/check_perfbench_digests.sh [binary] [jobs]
#
# `binary` defaults to .bench_build/perfbench/nexit_perfbench and `jobs`
# (parallel runs) to 4. Prints each mismatch and a summary line; exits 1 on
# any mismatch or failed run. Reads the table and writes nothing.
set -euo pipefail

bin=${1:-.bench_build/perfbench/nexit_perfbench}
jobs=${2:-4}
table=perfbench/digests.json
[ -x "$bin" ] || { echo "no benchmark binary at $bin" >&2; exit 2; }
[ -f "$table" ] || { echo "no $table (run from the repo root)" >&2; exit 2; }

results=$(python3 -c '
import json, sys
for workload, seeds in json.load(open(sys.argv[1])).items():
    for seed, digest in seeds.items():
        print(workload, seed, digest)
' "$table" | xargs -P"$jobs" -n3 sh -c '
got=$("$0" --workload="$1" --seed="$2" --seconds=1 --trace=0 --digest-only \
      2>/dev/null | tail -n1) || got="(run failed)"
if [ "$got" = "$3" ]; then echo ok; else echo "MISMATCH $1 seed $2: $got, recorded $3"; fi
' "$bin")

total=$(printf '%s\n' "$results" | grep -c . || true)
ok=$(printf '%s\n' "$results" | grep -cx ok || true)
printf '%s\n' "$results" | grep -v '^ok$' || true
echo "perfbench digests: $ok of $total match"
[ "$total" -gt 0 ] && [ "$ok" -eq "$total" ]
