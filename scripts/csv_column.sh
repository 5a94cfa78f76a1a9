#!/usr/bin/env bash
# Prints the 1-based index of the column named NAME in the header row of
# a snap_cli CSV, so smoke checks can address columns by name instead of
# by position. Exits 1 with a message when the header has no such column.
#
# Usage: scripts/csv_column.sh NAME FILE
#   col=$(scripts/csv_column.sh links_pruned run.csv)
#   awk -F, -v c="$col" 'NR > 1 && $c > 0 { n++ } END { exit !n }' run.csv
set -euo pipefail
if [[ $# -ne 2 ]]; then
  echo "usage: $0 NAME FILE" >&2
  exit 2
fi
index="$(awk -F, -v name="$1" \
  'NR == 1 { for (i = 1; i <= NF; i++) if ($i == name) { print i; break }
             exit }' \
  "$2")"
if [[ -z "$index" ]]; then
  echo "error: $2 has no CSV column '$1'" >&2
  exit 1
fi
echo "$index"
