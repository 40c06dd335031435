#!/bin/sh
# End-to-end figure-bench smoke:
#
#   * a figure sweep's published output must be byte-identical whether the
#     machine points are interpreted directly or replayed from the tape
#     recorded at the first point. Any drift here means the record/replay
#     contract broke somewhere between the IR walker and the stats printer;
#   * SIGINT during the first machine point abandons the axis between
#     points: exit 130 and an "interrupted after 1 of 2" diagnostic;
#   * malformed --threads / --max-points / SELCACHE_THREADS values and
#     unknown flags exit 2 instead of silently running something else.
#
# Truncated to 2 machine points so the test stays fast.
set -eu

BENCH="${1:?usage: run_tape_figure_test.sh PATH_TO_bench_fig5_memlat}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Wall-clock footers ("simulated in Ns, ..., replayed" / "axis total: ...")
# legitimately differ between the two modes; everything else must not.
strip_timing() {
  grep -v -e '^(simulated in ' -e '^axis total: ' "$1" > "$2"
}

"$BENCH" --max-points 2 --threads 1 > "$TMP/tape_raw.txt"
"$BENCH" --max-points 2 --threads 1 --no-reuse-tape > "$TMP/interp_raw.txt"
strip_timing "$TMP/tape_raw.txt" "$TMP/tape.txt"
strip_timing "$TMP/interp_raw.txt" "$TMP/interp.txt"
if ! cmp -s "$TMP/interp.txt" "$TMP/tape.txt"; then
  diff -u "$TMP/interp.txt" "$TMP/tape.txt" | head -40 >&2
  fail "replayed figure output differs from interpreted output"
fi

# SIGINT one second into point 0 of a 2-point run: point 0 finishes, the
# axis stops before point 1.
"$BENCH" --max-points 2 --threads 1 > /dev/null 2> "$TMP/int_err.txt" &
pid=$!
sleep 1
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 130 ] || fail "SIGINT figure run exited $rc (want 130)"
grep -q '^interrupted after 1 of 2 machine points' "$TMP/int_err.txt" \
  || fail "SIGINT figure run did not report 'interrupted after 1 of 2'"

expect() {
  want="$1"
  shift
  rc=0
  "$@" > /dev/null 2> "$TMP/flag_err.txt" || rc=$?
  [ "$rc" -eq "$want" ] || fail "'$*' exited $rc (want $want)"
  if [ "$want" -eq 2 ]; then
    grep -q '^usage: ' "$TMP/flag_err.txt" \
      || fail "'$*' exited 2 without the usage line"
  fi
}

expect 2 "$BENCH" --max-points abc
expect 2 "$BENCH" --max-points -1
expect 2 "$BENCH" --max-points 2x
expect 2 "$BENCH" --max-points 0 --threads abc
expect 2 "$BENCH" --max-points 0 --threads 5000
expect 2 env SELCACHE_THREADS=abc "$BENCH" --max-points 0
expect 2 "$BENCH" --bogus-flag
expect 0 "$BENCH" --max-points 0
expect 0 env SELCACHE_THREADS=2 "$BENCH" --max-points 0

echo "tape_figure_smoke OK: fig5 (2 points) byte-identical interpreted vs" \
     "replayed; SIGINT exits 130 between points; malformed flags exit 2"
