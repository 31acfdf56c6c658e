#!/bin/sh
# CC-lane sweep determinism smoke (ISSUE 10 acceptance scenario): for
# every congestion controller, the same sweep grid executed serially,
# under --procs 4, and SIGKILLed partway (--kill-after-checkpoints)
# then resumed must print the same campaign digest and write
# byte-identical BENCH_*.json output. The network axis must compose
# with the campaign machinery without costing a single output byte.
set -u

CAMPAIGN="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mvqoe_cc_smoke.XXXXXX")" || exit 1
trap 'rm -rf "$WORK"' EXIT

SPEC="--duration 6 --runs 2 --seed 5 --states low --fps 30 --heights 360"

digest_of() {
  sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' "$1" | tail -1
}

for cc in fifo cubic bbr c4; do
  echo "== [$cc] uninterrupted serial sweep =="
  mkdir -p "$WORK/$cc/serial"
  # shellcheck disable=SC2086
  MVQOE_JSON_DIR="$WORK/$cc/serial" "$CAMPAIGN" sweep $SPEC --cc "$cc" --out cc \
      > "$WORK/$cc/serial.log" 2>&1
  status=$?
  if [ $status -ne 0 ]; then
    echo "[$cc] serial sweep failed with exit $status"
    cat "$WORK/$cc/serial.log"
    exit 1
  fi
  serial_digest=$(digest_of "$WORK/$cc/serial.log")
  echo "[$cc] serial digest: $serial_digest"
  [ -n "$serial_digest" ] || { cat "$WORK/$cc/serial.log"; exit 1; }
  [ -f "$WORK/$cc/serial/BENCH_cc.json" ] || {
    echo "[$cc] missing BENCH_cc.json"
    exit 1
  }

  echo "== [$cc] --procs 4 sweep =="
  mkdir -p "$WORK/$cc/procs"
  # shellcheck disable=SC2086
  MVQOE_JSON_DIR="$WORK/$cc/procs" "$CAMPAIGN" sweep $SPEC --cc "$cc" --procs 4 --out cc \
      > "$WORK/$cc/procs.log" 2>&1
  status=$?
  if [ $status -ne 0 ]; then
    echo "[$cc] procs sweep failed with exit $status"
    cat "$WORK/$cc/procs.log"
    exit 1
  fi
  procs_digest=$(digest_of "$WORK/$cc/procs.log")
  echo "[$cc] procs digest:  $procs_digest"
  if [ "$procs_digest" != "$serial_digest" ]; then
    echo "[$cc] DIGEST MISMATCH: serial=$serial_digest procs=$procs_digest"
    exit 1
  fi
  cmp -s "$WORK/$cc/serial/BENCH_cc.json" "$WORK/$cc/procs/BENCH_cc.json" || {
    echo "[$cc] procs BENCH json differs from the serial run"
    exit 1
  }

  echo "== [$cc] sweep SIGKILLed after 1 checkpoint =="
  STATE="$WORK/$cc/sweep.mvqs"
  # shellcheck disable=SC2086
  "$CAMPAIGN" sweep $SPEC --cc "$cc" --state "$STATE" --kill-after-checkpoints 1 \
      > "$WORK/$cc/killed.log" 2>&1
  status=$?
  # 137 = 128 + SIGKILL: the coordinator must actually die, not exit.
  if [ $status -ne 137 ]; then
    echo "[$cc] expected the sweep to die by SIGKILL (exit 137), got $status"
    cat "$WORK/$cc/killed.log"
    exit 1
  fi
  [ -f "$STATE" ] || { echo "[$cc] no checkpoint at $STATE"; exit 1; }

  echo "== [$cc] resume from the checkpoint (grid and cc come from the blob) =="
  mkdir -p "$WORK/$cc/resumed"
  MVQOE_JSON_DIR="$WORK/$cc/resumed" "$CAMPAIGN" sweep --resume "$STATE" --out cc \
      > "$WORK/$cc/resume.log" 2>&1
  status=$?
  if [ $status -ne 0 ]; then
    echo "[$cc] resume failed with exit $status"
    cat "$WORK/$cc/resume.log"
    exit 1
  fi
  resumed_digest=$(digest_of "$WORK/$cc/resume.log")
  echo "[$cc] resumed digest: $resumed_digest"
  if [ "$resumed_digest" != "$serial_digest" ]; then
    echo "[$cc] DIGEST MISMATCH: serial=$serial_digest resumed=$resumed_digest"
    cat "$WORK/$cc/resume.log"
    exit 1
  fi
  cmp -s "$WORK/$cc/serial/BENCH_cc.json" "$WORK/$cc/resumed/BENCH_cc.json" || {
    echo "[$cc] resumed BENCH json differs from the serial run"
    exit 1
  }
done

echo "OK: every CC lane is digest- and byte-identical across serial, --procs and kill-and-resume"
exit 0
