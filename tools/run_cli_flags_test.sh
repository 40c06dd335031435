#!/usr/bin/env bash
# CLI contract for the predict subcommands, tape --stat/--out/--in, the
# sweep/suite fault flags, and the engine flags and commands that do not
# exist (--batch / --no-simd, the flat-trace commands): unknown flags
# and malformed invocations must exit 2 (same as every other subcommand),
# good runs 0, and a failed cross-check 1. A tape saved with --out and
# replayed with --in on another machine must print what `selcache run`
# prints for that cell and machine.
#
#   tools/run_cli_flags_test.sh path/to/selcache
set -u

cli="$1"
fails=0
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

expect() {
  local want="$1"; shift
  "$@" > /dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want"
    fails=$((fails + 1))
  fi
}

# Unknown flags exit 2 before any work happens.
expect 2 "$cli" predict Vpenta base --bogus
expect 2 "$cli" predict Vpenta base --machine        # value flag, no value
expect 2 "$cli" predict-matrix --bogus
expect 2 "$cli" predict-matrix --workload            # value flag, no value

# Malformed positionals / values also exit 2.
expect 2 "$cli" predict Vpenta                       # missing VERSION
expect 2 "$cli" predict NoSuchWorkload base
expect 2 "$cli" predict Vpenta nosuchversion
expect 2 "$cli" predict Vpenta base --threshold abc
expect 2 "$cli" predict Vpenta base --capacity-fraction -1

# Healthy invocations exit 0 (static-only is fast; --check simulates).
expect 0 "$cli" predict Vpenta base
expect 0 "$cli" predict Vpenta base --csv
expect 0 "$cli" predict Perl base                    # non-analyzable is not an error
expect 0 "$cli" predict Vpenta base --check
expect 0 "$cli" predict Vpenta base --check --predict-classify

# The engine has one replay loop and a compile-time probe kernel, so
# --batch and --no-simd are not flags: they exit 2 like any unknown flag.
# tape --stat is an ordinary healthy invocation.
expect 2 "$cli" sweep --workload Perl --batch 512
expect 2 "$cli" sweep --workload Perl --reuse-tape --batch 0
expect 2 "$cli" sweep --workload Perl --no-simd
expect 2 "$cli" suite --batch 512
expect 2 "$cli" suite --no-simd
expect 2 "$cli" tape Perl base --stat --bogus
expect 0 "$cli" sweep --workload Perl --reuse-tape
expect 0 "$cli" tape Perl base --stat

# The degradation and retry flags act only on an isolated sweep: without
# --inject-faults or --watchdog-accesses they exit 2 instead of being
# silently dropped.
expect 2 "$cli" sweep --workload Perl --fault-budget 5
expect 2 "$cli" sweep --workload Perl --integrity-checks
expect 2 "$cli" sweep --workload Perl --max-retries 7
expect 2 "$cli" suite --max-retries 1
expect 2 "$cli" sweep --workload Perl --fault-rate 0.5
expect 2 "$cli" sweep --workload Perl --watchdog-accesses 100000000 \
  --fault-seed 7
expect 0 "$cli" sweep --workload Perl --inject-faults --fault-kind toggle-drop \
  --fault-budget 5 --integrity-checks --max-retries 2
expect 0 "$cli" sweep --workload Perl --watchdog-accesses 100000000 \
  --fault-budget 5 --integrity-checks --max-retries 2

# Saved runs are trace tapes; the flat-trace commands are gone.
expect 2 "$cli" trace-record --workload Perl --out "$work/perl.sctrace"
expect 2 "$cli" trace-replay "$work/perl.sctrace"
expect 2 "$cli" tape Perl base --in "$work/missing.tape"
printf 'this is not a tape' > "$work/garbage.tape"
expect 2 "$cli" tape Perl base --in "$work/garbage.tape"
expect 0 "$cli" tape Vpenta combined --out "$work/vpenta.tape"
expect 2 "$cli" tape Vpenta combined --in "$work/vpenta.tape" \
  --out "$work/again.tape"

# Round trip: recorded at base, replayed at memlat. VERSION sets the
# controller's initial state, so a hardware-always-on cell replays with the
# scheme on, exactly as `selcache run` simulates it.
"$cli" run --workload Vpenta --version combined --machine memlat \
  > "$work/run.txt" 2>&1
"$cli" tape Vpenta combined --in "$work/vpenta.tape" --machine memlat \
  > "$work/replay.txt" 2>&1
if ! grep -q cycles "$work/run.txt" ||
   ! diff "$work/run.txt" "$work/replay.txt" > /dev/null; then
  echo "FAIL: tape --in at memlat differs from selcache run"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "cli flag contract: $fails failure(s)"
  exit 1
fi
echo "cli flag contract: all exit codes as specified"
