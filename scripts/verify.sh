#!/usr/bin/env bash
# Tier-1 verification: offline build + tests, lint wall (clippy, fmt,
# rustdoc), and the regeneration gate — every committed file under results/ is what `repro`
# produces at HEAD, at any POLIMER_THREADS.
#
# `repro --check` is that gate: it runs the selection, compares every
# output with results/ in-process (JSON field by field, anything else by
# its first differing line) and exits 1 naming each file that differs or
# is missing. Since every width must equal the committed bytes, two widths
# agree with each other without a diff of their own. The remaining
# byte-identity gates (traces, run documents outside results/) go through
# the run explainer, `trace_diff`, which names the first differing line
# and field; seeded self-tests prove it, and `audit_trace`, fail on
# doctored input before any gate trusts their silence.
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

# One width contract. The `par` pool fans out over whole runs only:
# `repro`'s batch and `run_experiment`'s controller/baseline pair (bench),
# and perfbench's harness. No other crate has a direct edge to it, normal
# or dev, so no kernel can enter the pool inside one run and no test can
# loop over widths on code that never enters it: the width is tested only
# where the pool is entered (par's own tests, bench's batch and pair
# tests, and the width-1/width-4 runs below). `--depth 1` lists direct
# edges only; deeper, every crate that dev-depends on `mdsim` would show.
stage "deps: only bench and perfbench reach par, by any normal or dev edge"
par_users="$(cargo tree --offline -e normal,dev -i par --depth 1 --prefix none |
    cut -d' ' -f1 | sort -u | xargs)"
test "$par_users" = "bench par perfbench" || {
    echo "par is reached by: $par_users (expected: bench par perfbench)"
    exit 1
}

stage "tier-1: cargo build --release (offline)"
cargo build --release --offline

stage "tier-1: cargo test -q (offline)"
cargo test -q --offline

stage "lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

stage "format: cargo fmt --check"
cargo fmt --check

# Broken intra-doc links (an item renamed, deleted or made private) fail
# here instead of rendering as plain text.
stage "docs: cargo doc --no-deps with rustdoc warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

c="$(mktemp -d)"
trap 'rm -rf "$c"' EXIT
mkdir -p "$c/1" "$c/4" "$c/replay"

stage "every committed artifact regenerates: repro --check at POLIMER_THREADS=4"
POLIMER_THREADS=4 ./target/release/repro --check --quiet

# The sweep rows again, audited and traced: their run documents are
# committed too, and each trace is replayed below. Their Perfetto exports
# carry the scheduler and fleet instants, and must not depend on the width
# either: `trace_diff --artifact` parses both documents and compares them
# exactly.
stage "sweeps: repro <row> --check --audit --trace --trace-perfetto at POLIMER_THREADS=1 and 4"
for t in 1 4; do
    for row in machine_sweep machine_sweep_theta fleet_sweep; do
        POLIMER_THREADS=$t ./target/release/repro "$row" --check --audit --quiet \
            --trace "$c/$t/$row.jsonl" --trace-perfetto "$c/$t/$row.perfetto.json"
    done
done
./target/release/trace_diff "$c/1/fleet_sweep.jsonl" "$c/4/fleet_sweep.jsonl"
for row in machine_sweep machine_sweep_theta fleet_sweep; do
    ./target/release/trace_diff --artifact "$c/1/$row.perfetto.json" "$c/4/$row.perfetto.json"
done

stage "trace determinism: run_experiment JSONL + run document at POLIMER_THREADS=1 vs 4"
for t in 1 4; do
    SEESAW_RESULTS_DIR="$c/$t" POLIMER_THREADS=$t ./target/release/run_experiment \
        --nodes 8 --dim 16 --steps 40 --analyses vacf --quiet --audit --trace "$c/t$t.jsonl"
done
./target/release/trace_diff "$c/t1.jsonl" "$c/t4.jsonl"
test -s "$c/t1.jsonl"
./target/release/trace_diff --artifact "$c/1/run_run_experiment.json" "$c/4/run_run_experiment.json"
# An unknown controller is a usage-level error: exit 2, the message on
# stderr.
set +e
./target/release/run_experiment --controller nonsense --nodes 8 --dim 16 --steps 40 --quiet \
    2> "$c/unknown_controller.txt"
ru=$?
set -e
test "$ru" -eq 2 || { echo "unknown controller: exit $ru, expected 2"; exit 1; }
grep -q 'unknown controller' "$c/unknown_controller.txt"

# The gates above only ever feed trace_diff identical files; prove it
# still *fails* — right code, right line, causal context — on seeded
# doctored traces before trusting the silence.
stage "trace_diff self-test: doctored traces fail with DIFF codes at the exact line"
ln="$(grep -n '"ev":"phase"' "$c/t1.jsonl" | tail -1 | cut -d: -f1)"
sed "${ln}s/\"end_ns\":/\"end_ns\":9/" "$c/t1.jsonl" > "$c/doctored_flip.jsonl"
set +e
./target/release/trace_diff "$c/t1.jsonl" "$c/doctored_flip.jsonl" > "$c/explain.txt"
r1=$?
set -e
test "$r1" -eq 1 || { echo "self-test FAILED: flipped value not detected (exit $r1)"; exit 1; }
grep -q 'error\[DIFF0001\]' "$c/explain.txt"
grep -q "line ${ln}" "$c/explain.txt"
grep -q '"end_ns"' "$c/explain.txt"
grep -q 'node ' "$c/explain.txt"
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

# A trace is untrusted input. Node ids far past `run_start`'s count (up to
# i64::MAX) and a `run_start` that claims 2^60 nodes must be audited, not
# allocated or trusted: the auditor sizes its per-node columns with a cap
# and spills the rest. The doctored trace also carries one overlapping
# span, so it must exit 1 with that finding alone and write the run
# document pinned here by its `cksum`, as the auditor did before it kept
# per-node columns.
stage "audit_trace self-test: hostile node ids and run_start node count are audited, not trusted"
awk '
/"ev":"run_start"/ { sub(/"sim_nodes":[0-9]+/, "\"sim_nodes\":1152921504606846976") }
/"ev":"sync_end","sync":2,/ {
    match($0, /"t":[0-9]+/); t = substr($0, RSTART + 4, RLENGTH - 4)
    printf "{\"t\":%s,\"ev\":\"phase\",\"node\":4096,\"kind\":\"force\",\"start_ns\":%s,\"end_ns\":%s}\n", t, t, t
    printf "{\"t\":%s,\"ev\":\"phase\",\"node\":4096,\"kind\":\"force\",\"start_ns\":%.0f,\"end_ns\":%s}\n", t, t - 5, t
    printf "{\"t\":%s,\"ev\":\"sample\",\"node\":9223372036854775807,\"role\":\"sim\",\"time_s\":1,\"power_w\":120,\"cap_w\":110}\n", t
    printf "{\"t\":%s,\"ev\":\"arrival\",\"sync\":2,\"node\":9223372036854775806,\"role\":\"analysis\",\"time_s\":1}\n", t
}
/"ev":"run_end"/ {
    match($0, /"t":[0-9]+/); t = substr($0, RSTART + 4, RLENGTH - 4)
    printf "{\"t\":%s,\"ev\":\"node_energy\",\"node\":9223372036854775807,\"energy_j\":0}\n", t
}
{ print }' "$c/t1.jsonl" >"$c/hostile.jsonl"
mkdir "$c/hostile"
set +e
./target/release/audit_trace --quiet --json "$c/hostile" "$c/hostile.jsonl" 2>"$c/hostile.err"
rh=$?
set -e
test "$rh" -eq 1 || { echo "hostile trace: exit $rh, expected 1"; exit 1; }
grep -q '1 violation(s)' "$c/hostile.err"
grep -q 'error\[AUDIT0003\] spans: .* on node 4096 overlaps' "$c/hostile.err"
test "$(cksum <"$c/hostile/run_hostile.json")" = "3883942756 22919" || {
    echo "hostile trace: the run document moved"; exit 1
}

# Replaying a saved trace from disk (line by line, constant memory) must
# reproduce the live in-process audit of the same run. `--check` has shown
# the sweeps' live run documents equal the committed ones, so each replay
# is compared with the committed file.
stage "streaming audit equivalence: file replay ≡ live, byte-identical"
./target/release/audit_trace --quiet --json "$c/replay" "$c"/1/*.jsonl "$c/t1.jsonl"
for row in machine_sweep machine_sweep_theta fleet_sweep; do
    ./target/release/trace_diff --artifact "$c/replay/run_$row.json" "results/run_$row.json"
done
./target/release/trace_diff --artifact "$c/replay/run_t1.json" "$c/1/run_run_experiment.json"

# The examples are the only real-MD runs end to end outside perfbench.
# Each must exit 0. They are built by `insitu`, which has no edge to the
# pool, so the width cannot reach them and each runs once. lammps_insitu
# must also print what each analysis computed: an RDF, MSD and VACF line.
stage "examples: every example runs, lammps_insitu prints each analysis"
cargo build --release --offline --examples
for ex in quickstart controller_comparison power_trace; do
    "./target/release/examples/$ex" >/dev/null
done
science="$(./target/release/examples/lammps_insitu)"
for analysis in rdf msd vacf; do
    if ! grep -q "^  $analysis *: " <<<"$science"; then
        echo "lammps_insitu printed no $analysis line" >&2
        exit 1
    fi
done

stage "size report (informational, never a gate): non-test lines and pub items per crate"
sh scripts/loc.sh || true

echo "OK [${SECONDS} s, +$((SECONDS - mark)) s]: only bench and perfbench reach par, build + tests green, clippy + fmt + rustdoc clean, every committed artifact regenerated byte-identical (repro --check, at two widths for the sweeps), traces and Perfetto exports thread-count invariant (gated by trace_diff, self-tested), audits clean (file replay ≡ live), examples run"
