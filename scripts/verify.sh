#!/usr/bin/env bash
# Tier-1 verification: offline build + tests, lint wall, the
# fault-injection determinism gate (same seed -> byte-identical JSON) and
# the regeneration gate (every committed paper artifact is what `repro`
# writes at HEAD).
#
# Every byte-identity gate routes through the run explainer
# (`trace_diff`): identical inputs are silent exit-0 exactly like `diff`,
# but a divergence names the first differing line, the field that moved,
# and the last events per involved node before the break — so a gate
# failure arrives pre-bisected. A seeded self-test doctors a real trace
# to prove the explainer actually fails (nonzero exit, DIFF code, line
# number, per-node context) before any gate trusts it.
#
# No stage holds a wall-clock bound, so a busy host cannot turn it red:
# what the code promises about work is an exact count in the tests, and
# host timings are perfbench's (`BENCHMARK.json`).
#
# Every `==>` line carries `[T s, +D s]`: seconds since the script
# started, and the seconds the previous stage took.
set -euo pipefail
cd "$(dirname "$0")/.."

mark=$SECONDS
stage() {
    echo "==> [${SECONDS} s, +$((SECONDS - mark)) s] $*"
    mark=$SECONDS
}

stage "tier-1: cargo build --release (offline)"
cargo build --release --offline

stage "tier-1: cargo test -q (offline)"
cargo test -q --offline

stage "lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

stage "format: cargo fmt --check"
cargo fmt --check

a="$(mktemp -d)"
b="$(mktemp -d)"
c="$(mktemp -d)"
trap 'rm -rf "$a" "$b" "$c"' EXIT

# Divergence diagnostics land here; CI sets SEESAW_DIAG_DIR to a
# persistent path and uploads it as an artifact when a gate fails.
DIAG="${SEESAW_DIAG_DIR:-$c/diag}"
mkdir -p "$DIAG"

# On divergence: print the explanation, and bank it plus the tails of
# both inputs for the CI artifact.
explain_failure() {
    cat "$DIAG/last.txt"
    {
        echo "=== $1 vs $2 ==="
        cat "$DIAG/last.txt"
        echo "--- tail $1 ---"
        tail -n 20 "$1"
        echo "--- tail $2 ---"
        tail -n 20 "$2"
    } >>"$DIAG/divergence.txt"
    return 1
}
# Trace gate: streaming line-by-line comparison (constant memory).
tdiff() {
    ./target/release/trace_diff "$1" "$2" >"$DIAG/last.txt" 2>&1 || explain_failure "$1" "$2"
}
# Artifact gate: exact (rel-tol 0) JSON document comparison.
adiff() {
    ./target/release/trace_diff --artifact "$1" "$2" >"$DIAG/last.txt" 2>&1 \
        || explain_failure "$1" "$2"
}

stage "determinism: repro fault_sweep twice, byte-identical JSON"
SEESAW_RESULTS_DIR="$a" ./target/release/repro fault_sweep --quick --audit >/dev/null
SEESAW_RESULTS_DIR="$b" ./target/release/repro fault_sweep --quick >/dev/null
adiff "$a/fault_sweep.json" "$b/fault_sweep.json"

# results/ is a function of HEAD: one full `repro` (every distinct
# simulation once) must reproduce all 16 JSON and 7 SVG files and its own
# stdout, results/full_run.log — fault_sweep.json and the three sweeps'
# JSON among them.
stage "every paper artifact regenerates: full repro at POLIMER_THREADS=4 vs committed results/"
mkdir -p "$c/repro"
SEESAW_RESULTS_DIR="$c/repro" POLIMER_THREADS=4 ./target/release/repro \
    >"$c/repro/full_run.log" 2>"$c/repro.err" || { cat "$c/repro.err"; exit 1; }
test "$(ls "$c/repro" | wc -l)" -eq 24
for f in "$c/repro"/*.json; do
    adiff "$f" "results/$(basename "$f")"
done
for f in "$c/repro"/*.svg "$c/repro/full_run.log"; do
    cmp "$f" "results/$(basename "$f")"
done

# sched steps its jobs on the calling thread, so T1 vs T4 here guards
# against a thread-count dependence creeping in, not a threaded path.
stage "machine determinism: repro machine_sweep at POLIMER_THREADS=1 vs 4 vs committed JSON (audited)"
SEESAW_RESULTS_DIR="$a" SEESAW_TRACE="$c/m1.jsonl" POLIMER_THREADS=1 \
    ./target/release/repro machine_sweep --quiet --audit
SEESAW_RESULTS_DIR="$b" POLIMER_THREADS=4 ./target/release/repro machine_sweep --quiet --audit
adiff "$a/machine_sweep.json" "$b/machine_sweep.json"
adiff "$b/machine_sweep.json" results/machine_sweep.json
adiff "$a/run_machine_sweep.json" "$b/run_machine_sweep.json"

# As for machine_sweep: members step on the calling thread at any width.
stage "fleet chaos soak: repro fleet_sweep at POLIMER_THREADS=1 vs 4 vs committed JSON (traced + audited)"
SEESAW_RESULTS_DIR="$a" SEESAW_TRACE="$c/fleet1.jsonl" POLIMER_THREADS=1 \
    ./target/release/repro fleet_sweep --quiet --audit
SEESAW_RESULTS_DIR="$b" SEESAW_TRACE="$c/fleet4.jsonl" POLIMER_THREADS=4 \
    ./target/release/repro fleet_sweep --quiet --audit
adiff "$a/fleet_sweep.json" "$b/fleet_sweep.json"
adiff "$b/fleet_sweep.json" results/fleet_sweep.json
tdiff "$c/fleet1.jsonl" "$c/fleet4.jsonl"
test -s "$c/fleet1.jsonl"
adiff "$a/run_fleet_sweep.json" "$b/run_fleet_sweep.json"

stage "trace determinism: run_experiment JSONL + run document at POLIMER_THREADS=1 vs 4"
SEESAW_TRACE="$c/t1.jsonl" SEESAW_AUDIT=1 SEESAW_RESULTS_DIR="$a" POLIMER_THREADS=1 \
    ./target/release/run_experiment --nodes 8 --dim 16 --steps 40 --analyses vacf --quiet
SEESAW_TRACE="$c/t4.jsonl" SEESAW_AUDIT=1 SEESAW_RESULTS_DIR="$b" POLIMER_THREADS=4 \
    ./target/release/run_experiment --nodes 8 --dim 16 --steps 40 --analyses vacf --quiet
tdiff "$c/t1.jsonl" "$c/t4.jsonl"
test -s "$c/t1.jsonl"
adiff "$a/run_run_experiment.json" "$b/run_run_experiment.json"

# The gates above only ever feed trace_diff identical files; prove it
# still *fails* — right code, right line, causal context — on seeded
# doctored traces before trusting the silence.
stage "trace_diff self-test: doctored traces fail with DIFF codes at the exact line"
ln="$(grep -n '"ev":"phase"' "$c/t1.jsonl" | tail -1 | cut -d: -f1)"
sed "${ln}s/\"end_ns\":/\"end_ns\":9/" "$c/t1.jsonl" > "$c/doctored_flip.jsonl"
set +e
POLIMER_THREADS=1 ./target/release/trace_diff "$c/t1.jsonl" "$c/doctored_flip.jsonl" \
    > "$c/explain1.txt"
r1=$?
POLIMER_THREADS=4 ./target/release/trace_diff "$c/t1.jsonl" "$c/doctored_flip.jsonl" \
    > "$c/explain4.txt"
r4=$?
set -e
test "$r1" -eq 1 || { echo "self-test FAILED: flipped value not detected (exit $r1)"; exit 1; }
test "$r4" -eq 1
grep -q 'error\[DIFF0001\]' "$c/explain1.txt"
grep -q "line ${ln}" "$c/explain1.txt"
grep -q '"end_ns"' "$c/explain1.txt"
grep -q 'node ' "$c/explain1.txt"
diff "$c/explain1.txt" "$c/explain4.txt"
sed "${ln}d" "$c/t1.jsonl" > "$c/doctored_drop.jsonl"
if ./target/release/trace_diff --quiet "$c/t1.jsonl" "$c/doctored_drop.jsonl"; then
    echo "self-test FAILED: dropped line not detected"; exit 1
fi
head -n 5 "$c/t1.jsonl" > "$c/doctored_trunc.jsonl"
set +e
./target/release/trace_diff "$c/t1.jsonl" "$c/doctored_trunc.jsonl" > "$c/explain_trunc.txt"
rt=$?
set -e
test "$rt" -eq 1
grep -q 'error\[DIFF0002\]' "$c/explain_trunc.txt"

stage "full-Theta smoke: 4392-node repro machine_sweep_theta, audited streaming, T1 vs T4"
SEESAW_RESULTS_DIR="$a" POLIMER_THREADS=1 \
    ./target/release/repro machine_sweep_theta --quick --quiet --audit
SEESAW_RESULTS_DIR="$b" POLIMER_THREADS=4 \
    ./target/release/repro machine_sweep_theta --quick --quiet --audit
adiff "$a/machine_sweep_theta.json" "$b/machine_sweep_theta.json"
adiff "$a/run_machine_sweep_theta.json" "$b/run_machine_sweep_theta.json"

stage "trace audit: invariant battery over the serialized trace"
./target/release/audit_trace --quiet "$c/t1.jsonl"

# Every file audit_trace sees in this script is well formed; prove that a
# malformed line is refused — nonzero exit, AUDIT0013, the right line
# number — and that the same file with the line restored audits clean.
stage "audit_trace self-test: a line truncated mid-value fails with AUDIT0013 at that line"
bad="$(($(wc -l <"$c/t1.jsonl") / 2))"
awk -v n="$bad" 'NR == n { print substr($0, 1, length($0) - 3); next } { print }' \
    "$c/t1.jsonl" >"$c/doctored_malformed.jsonl"
if ./target/release/audit_trace --quiet "$c/doctored_malformed.jsonl" 2>"$c/malformed.err"; then
    echo "self-test FAILED: malformed line not detected"; exit 1
fi
grep -q 'AUDIT0013' "$c/malformed.err"
grep -q "line ${bad}: " "$c/malformed.err"
awk -v n="$bad" -v line="$(sed -n "${bad}p" "$c/t1.jsonl")" \
    'NR == n { print line; next } { print }' "$c/doctored_malformed.jsonl" >"$c/restored.jsonl"
cmp "$c/restored.jsonl" "$c/t1.jsonl"
./target/release/audit_trace --quiet "$c/restored.jsonl"

# Replaying a bin's serialized trace from disk (line by line, constant
# memory) must reproduce the *live* in-process audit the bin just wrote:
# the whole run document, snapshots and registry included.
stage "streaming audit equivalence: file replay ≡ live, byte-identical"
mkdir -p "$c/stream"
./target/release/audit_trace --quiet --json "$c/stream" \
    "$c/m1.jsonl" "$c/fleet1.jsonl" "$c/t1.jsonl"
adiff "$c/stream/run_m1.json" "$a/run_machine_sweep.json"
adiff "$c/stream/run_fleet1.json" "$a/run_fleet_sweep.json"
adiff "$c/stream/run_t1.json" "$a/run_run_experiment.json"
adiff "$a/run_fleet_sweep.json" results/run_fleet_sweep.json

# Wall-clock readings are inherently nondeterministic, so profile_*.json
# is asserted present and well-formed but never byte-compared.
stage "wall-clock stage profiler: profile_*.json written (existence only, never byte-diffed)"
SEESAW_RESULTS_DIR="$a" ./target/release/repro machine_sweep --quick --quiet --profile
SEESAW_RESULTS_DIR="$a" ./target/release/repro fleet_sweep --quick --quiet --profile
test -s "$a/profile_machine_sweep.json"
test -s "$a/profile_fleet_sweep.json"
grep -q '"schema_version": 1' "$a/profile_machine_sweep.json"
grep -q '"sched.governor_epoch"' "$a/profile_machine_sweep.json"
grep -q '"schema_version": 1' "$a/profile_fleet_sweep.json"

stage "size report (informational, never a gate): non-test lines and pub items per crate"
sh scripts/loc.sh || true

echo "OK [${SECONDS} s, +$((SECONDS - mark)) s]: build + tests green, clippy + fmt clean, every paper artifact regenerated byte-identical, sweeps/traces thread-count invariant (gated by trace_diff, self-tested), audits clean (file replay ≡ live), profiler artifacts written"
