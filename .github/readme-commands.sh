#!/usr/bin/env bash
# Runs each catoptrix command line read on stdin, in a temporary directory for
# the files it writes: each must exit 0 and print one JSON record with status
# ok. Fails on the first line that does not, and when stdin holds no line.
set -eo pipefail
cd "$(mktemp -d)"
count=0
while read -r line; do
  echo "$line"
  out=$(eval "$line")
  printf '%s\n' "$out" | python -c '
import json, sys
lines = sys.stdin.read().splitlines()
assert len(lines) == 1, f"{len(lines)} lines of output"
assert json.loads(lines[0])["status"] == "ok", lines[0]
'
  count=$((count + 1))
done
test "$count" -gt 0
