#!/bin/sh
# Thread-lane sweep determinism smoke: the same sweep grid run with
# --jobs 4 and with --jobs 1 must write byte-identical BENCH json.
set -u

CAMPAIGN="$1"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mvqoe_sweep_jobs.XXXXXX")" || exit 1
trap 'rm -rf "$WORK"' EXIT

SPEC="--duration 6 --runs 2 --seed 5 --states normal,low --fps 30 --heights 360,480"

for jobs in 4 1; do
  mkdir -p "$WORK/jobs$jobs"
  # shellcheck disable=SC2086
  MVQOE_JSON_DIR="$WORK/jobs$jobs" "$CAMPAIGN" sweep $SPEC --jobs $jobs --out grid \
      > "$WORK/jobs$jobs.log" 2>&1
  status=$?
  if [ $status -ne 0 ]; then
    echo "--jobs $jobs sweep failed with exit $status"
    cat "$WORK/jobs$jobs.log"
    exit 1
  fi
done

cmp "$WORK/jobs4/BENCH_grid.json" "$WORK/jobs1/BENCH_grid.json" || {
  echo "--jobs 4 BENCH json differs from the --jobs 1 run"
  exit 1
}
echo "OK: --jobs 4 sweep json is byte-identical to --jobs 1"
exit 0
