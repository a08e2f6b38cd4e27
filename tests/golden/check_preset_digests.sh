#!/usr/bin/env bash
# Golden outcomes of every registered preset, run through nexit_run:
#
#   1. Digests and paper claims. Each row of the digest table is
#      `preset<TAB>digest` with an optional third column of flags; the
#      printed outcome digest must equal the recorded one, and the run must
#      print no `[MISS]` line (every paper claim the preset checks holds at
#      this scale). Rows without flags run with --threads=<threads>; a `-`
#      in the flags column means no flags at all. The `custom` rows pin the
#      shipped scenarios/*.spec files; their paths are relative to the
#      repository root, where the script runs (ctest sets it as the
#      working directory).
#   2. Records. Every registered preset except `custom` must have a digest
#      row and a JSON record in records/ next to the table. The preset is
#      rerun at small scale (--isps=12 --pairs=4 --threads=2; table3, which
#      takes only --seed, at --seed=5) and its --json record must match the
#      checked-in one byte for byte once every `wall_ms` value (wall-clock
#      time, the one run-dependent field) is dropped from both.
#
#   tests/golden/check_preset_digests.sh <nexit_run> <preset_digests.tsv> [threads]
#
# Exits 1 listing every preset whose digest or record drifted, that missed
# a paper claim, or that has no golden entry. After an intended change of
# outcomes, regenerate the table and the records from the new binary, e.g.
#
#   nexit_run --scenario=fig4 --isps=12 --pairs=4 --threads=2 \
#     --json=tests/golden/records/fig4.json
set -euo pipefail

bin=$1
table=$2
threads=${3:-4}
records="$(dirname "$table")/records"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

while IFS=$'\t' read -r preset expected flags; do
  case "$preset" in '' | '#'*) continue ;; esac
  flags=${flags:---threads=$threads}
  [ "$flags" = "-" ] && flags=""
  name=$preset  # a custom row is named by its spec
  [ "$preset" = custom ] && name="custom $flags"
  # shellcheck disable=SC2086  # flags is a word list
  "$bin" --scenario="$preset" $flags > "$tmp/$preset.out" || true
  actual=$(sed -n 's/^outcome digest: //p' "$tmp/$preset.out")
  if [ "$actual" = "$expected" ]; then
    echo "ok    $name $actual"
  else
    echo "DRIFT $name expected $expected got ${actual:-<none>}"
    status=1
  fi
  if grep -q '^\[MISS\]' "$tmp/$preset.out"; then
    echo "MISS  $name:"
    grep -A1 '^\[MISS\]' "$tmp/$preset.out"
    status=1
  fi
done < "$table"

strip_wall_ms() { sed -E 's/"wall_ms": [-+.0-9eE]+,? ?//g' "$1"; }

while IFS=$'\t' read -r preset _; do
  [ "$preset" = custom ] && continue
  if ! awk -F'\t' -v p="$preset" '$1 == p { found = 1 } END { exit !found }' \
       "$table"; then
    echo "MISSING digest row for $preset in $table"
    status=1
  fi
  if [ ! -f "$records/$preset.json" ]; then
    echo "MISSING record $records/$preset.json"
    status=1
    continue
  fi
  flags="--isps=12 --pairs=4 --threads=2"
  [ "$preset" = table3 ] && flags="--seed=5"
  # shellcheck disable=SC2086
  if ! "$bin" --scenario="$preset" $flags --json="$tmp/$preset.json" \
       > /dev/null; then
    echo "FAILED record run of $preset"
    status=1
  elif diff <(strip_wall_ms "$records/$preset.json") \
            <(strip_wall_ms "$tmp/$preset.json") > "$tmp/diff"; then
    echo "ok    record $preset"
  else
    echo "DRIFT record $preset:"
    head -20 "$tmp/diff"
    status=1
  fi
done < <("$bin" --list-scenarios=tsv)
exit "$status"
