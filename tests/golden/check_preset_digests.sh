#!/usr/bin/env bash
# Golden outcome digests: runs every preset listed in a digest table through
# nexit_run and compares the printed outcome digest with the recorded one.
#
#   tests/golden/check_preset_digests.sh <nexit_run> <preset_digests.tsv> [threads]
#
# Exits 1 listing every preset whose digest drifted. After an intended
# change of outcomes, regenerate the table from the new binary.
set -euo pipefail

bin=$1
table=$2
threads=${3:-4}
status=0
while IFS=$'\t' read -r preset expected; do
  case "$preset" in '' | '#'*) continue ;; esac
  actual=$("$bin" --scenario="$preset" --threads="$threads" |
           sed -n 's/^outcome digest: //p')
  if [ "$actual" = "$expected" ]; then
    echo "ok    $preset $actual"
  else
    echo "DRIFT $preset expected $expected got ${actual:-<none>}"
    status=1
  fi
done < "$table"
exit "$status"
