#!/bin/sh
# Runs dpmerge-lint on every .dp file in a directory of hostile inputs and
# requires each one to be refused cleanly: exit status 1 with a located
# "line L:C" diagnostic. A signal, a hang (30 s) or any other exit status
# fails the check.
#
#   tools/lint_hostile_inputs.sh build/tools/dpmerge-lint tests/data/hostile
set -u
lint=$1
dir=$2
status=0
count=0
for f in "$dir"/*.dp; do
  [ -e "$f" ] || continue
  count=$((count + 1))
  out=$(timeout 30 "$lint" "$f" 2>&1)
  rc=$?
  printf '%s\n' "$out"
  if [ "$rc" -ne 1 ]; then
    echo "FAIL $f: exit status $rc, want 1" >&2
    status=1
  elif ! printf '%s\n' "$out" | grep -Eq 'line [0-9]+:[0-9]+'; then
    echo "FAIL $f: no line:col diagnostic" >&2
    status=1
  fi
done
if [ "$count" -eq 0 ]; then
  echo "no .dp files in $dir" >&2
  exit 1
fi
exit "$status"
