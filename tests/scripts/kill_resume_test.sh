#!/bin/sh
# Kill-and-resume smoke test for `mcrt bulk --manifest/--resume`.
#
# A batch is SIGKILLed mid-run (one job pinned in its BLIF read: its input
# is a named pipe nothing writes, so the kill always lands with work in
# flight), then resumed with --resume over the real input. The acceptance bar: the resumed run completes every job and
# its canonical JSON report is byte-identical to an uninterrupted run's.
#
# Usage: kill_resume_test.sh <mcrt-binary> <scratch-dir>
set -eu

MCRT=$1
WORK=$2
SCRIPT='sweep; retime(d=10)'

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

"$MCRT" corpus circuits --count 6 --seed 11 > /dev/null

# Reference: one uninterrupted run.
"$MCRT" bulk "$SCRIPT" --jobs 2 --canonical \
  --out-dir out_ref --report ref.json circuits

# Interrupted run: job r05 blocks forever opening its input, a FIFO with
# no writer; SIGKILL once the manifest shows at least three finished jobs.
rm -rf out_kill
mv circuits/r05.blif r05.real
mkfifo circuits/r05.blif
"$MCRT" bulk "$SCRIPT" --jobs 2 \
  --manifest manifest.txt --out-dir out_kill circuits &
PID=$!
TRIES=0
while :; do
  # One JSON job record per line after the header line.
  DONE=$(grep -c '^{"name":' manifest.txt 2>/dev/null || true)
  [ "${DONE:-0}" -ge 3 ] && break
  TRIES=$((TRIES + 1))
  if [ "$TRIES" -gt 200 ]; then
    echo "error: batch never reached 3 completed jobs" >&2
    kill -9 "$PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.05
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# The blocked job must NOT be in the manifest (it never finished).
if grep '^{"name":"r05",' manifest.txt > /dev/null 2>&1; then
  echo "error: blocked job r05 was journaled as finished" >&2
  exit 1
fi

# Resume over the real input: only the missing jobs re-run.
rm circuits/r05.blif
mv r05.real circuits/r05.blif
"$MCRT" bulk "$SCRIPT" --jobs 2 --canonical --resume \
  --manifest manifest.txt --out-dir out_kill \
  --report resumed.json circuits

cmp ref.json resumed.json
echo "kill-and-resume: canonical reports are byte-identical"
