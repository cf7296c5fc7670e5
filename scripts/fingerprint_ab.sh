#!/usr/bin/env bash
# Bit-identity A/B of the pipeline benchmark: a parent commit against the
# working tree, in one shared cargo target directory.
#
#   scripts/fingerprint_ab.sh PARENT_REV
#
# Environment (all optional):
#   WORKLOADS        workloads to run   (default: construct construct_phy serve lifetime)
#   SEEDS            seeds to run       (default: 1 2 3 7)
#   SECONDS_PER_RUN  --seconds per run  (default: 20)
#   AB_TARGET_DIR    shared target dir  (default: a fresh temporary directory)
#
# The benchmark stores each run's output fingerprint next to its
# executable and, when a later run of the same workload, seed and
# --seconds disagrees, prints "fingerprint ... differs" and reports every
# operation failed. So the script builds PARENT_REV into the target
# directory and runs every workload x seed there first (storing the
# parent's fingerprints), then builds the working tree into the same
# directory and runs the same list again. Each run lands in one class:
#
#   FINGERPRINT DIFFERS  it printed a "differs" line (outputs changed)
#   INCORRECT            "correct": false, or no result line at all
#   OPS FAILED           correct and matching, but failed > 0 (a serve run
#                        whose events missed the latency limit on a busy
#                        host, say)
#   ok
#
# An OPS FAILED run is rerun once and the rerun's class is kept; the
# other two fail the A/B at once. The summary counts each class.
set -euo pipefail

parent=${1:?usage: scripts/fingerprint_ab.sh PARENT_REV}
workloads=${WORKLOADS:-construct construct_phy serve lifetime}
seeds=${SEEDS:-1 2 3 7}
seconds=${SECONDS_PER_RUN:-20}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
target=${AB_TARGET_DIR:-$work/target}
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$repo" archive "$parent" | tar -x -C "$work/parent"
rm -rf "$target/release/pipeline-bench-fingerprints"

declare -A count=([ok]=0 ["FINGERPRINT DIFFERS"]=0 [INCORRECT]=0 ["OPS FAILED"]=0)

# Runs one workload x seed, leaving its stderr in $log and its class in
# $verdict.
run_one() {
    local w=$1 s=$2 line
    # A run that crashes leaves no result line and counts as incorrect.
    line=$("$target/release/cbtc-pipeline-bench" --workload "$w" --seed "$s" \
        --seconds "$seconds" --trace 0 2>"$log" | tail -n 1) || line=
    if grep -q differs "$log"; then
        verdict="FINGERPRINT DIFFERS"
    elif ! grep -q '"correct": true' <<<"$line"; then
        verdict=INCORRECT
    elif ! grep -q '"failed": 0,' <<<"$line"; then
        verdict="OPS FAILED"
    else
        verdict=ok
    fi
}

run_side() {
    local side=$1 manifest=$2 log verdict note n
    CARGO_TARGET_DIR=$target cargo build --quiet --release --offline --manifest-path "$manifest"
    for w in $workloads; do
        for s in $seeds; do
            log=$work/$side-$w-$s.log
            note=
            run_one "$w" "$s"
            if [ "$verdict" = "OPS FAILED" ]; then
                note="(rerun after OPS FAILED) "
                run_one "$w" "$s"
            fi
            n=${count[$verdict]}
            count[$verdict]=$((n + 1))
            printf '%-6s %-13s seed %-3s %-20s %s%s\n' "$side" "$w" "$s" "$verdict" "$note" \
                "$(grep -o 'fingerprint .*' "$log" | tail -n 1)"
        done
    done
}

run_side parent "$work/parent/pipeline-bench/Cargo.toml"
run_side change "$repo/pipeline-bench/Cargo.toml"
summary="${count[ok]} ok, ${count[FINGERPRINT DIFFERS]} fingerprint differs, \
${count[INCORRECT]} incorrect, ${count[OPS FAILED]} ops failed"
if [ "${count[ok]}" = $((2 * $(wc -w <<<"$workloads") * $(wc -w <<<"$seeds"))) ]; then
    echo "fingerprint A/B: every run matched its parent, nothing failed ($summary)"
else
    echo "fingerprint A/B: FAILED ($summary)"
    exit 1
fi
