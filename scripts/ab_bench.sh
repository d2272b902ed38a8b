#!/bin/sh
# Paired, interleaved A/B runs of the end-to-end benchmark.
#
# Builds the benchmark twice: once from a base commit, checked out into
# a local git worktree under .ab_bench/, and once from the current
# checkout (HEAD plus any uncommitted edits). It then runs
#
#     crisp-e2e-bench --workload W --seed S --seconds T --trace 0
#
# alternately on the two builds for N rounds, swapping which side goes
# first every round so slow drifts of host speed hit both sides alike,
# and prints per-metric medians for each side: the scaled metrics from
# the JSON line, and the unscaled times from the `calibration:` line.
# Every run must report `correct: true`; the script fails otherwise.
#
# Everything is offline: the base is built from the local object store
# with `cargo --offline --locked`.
#
# Usage: scripts/ab_bench.sh [-w WORKLOAD] [-s SEED] [-n ROUNDS]
#                            [-t SECONDS] [-b BASE_REF]
#
#   -w  workload name or `all` (default: diff_campaign)
#   -s  benchmark seed (default: 0)
#   -n  rounds; each round runs both sides once (default: 10)
#   -t  seconds per run (default: 6)
#   -b  base commit (default: the merge-base of HEAD and main, or
#       HEAD~1 when HEAD is on main)
#
# Raw per-run values go to .ab_bench/runs.tsv (side, round, metric,
# value), one row per metric per run.

set -eu

workload=diff_campaign
seed=0
rounds=10
seconds=6
base_ref=
while getopts w:s:n:t:b: opt; do
    case $opt in
    w) workload=$OPTARG ;;
    s) seed=$OPTARG ;;
    n) rounds=$OPTARG ;;
    t) seconds=$OPTARG ;;
    b) base_ref=$OPTARG ;;
    *)
        sed -n '/^# Usage/,/^# Raw/p' "$0" >&2
        exit 2
        ;;
    esac
done

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ -z "$base_ref" ]; then
    base_ref=$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD)
    if [ "$base_ref" = "$(git rev-parse HEAD)" ]; then
        base_ref=$(git rev-parse HEAD~1)
    fi
fi
base=$(git rev-parse --verify "$base_ref^{commit}")

work=$root/.ab_bench
tree=$work/base
mkdir -p "$work"
if [ -e "$tree/.git" ]; then
    git -C "$tree" checkout --quiet --detach "$base"
else
    git worktree add --quiet --detach "$tree" "$base"
fi

build() {
    cargo build --release --offline --locked --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building base $(git rev-parse --short "$base") in $tree" >&2
build "$tree"
echo "building head (current checkout) in $root" >&2
build "$root"
base_bin=$tree/benchmark/target/release/crisp-e2e-bench
head_bin=$root/benchmark/target/release/crisp-e2e-bench

runs=$work/runs.tsv
: >"$runs"

# run SIDE ROUND BINARY: one benchmark run, its metrics appended to
# runs.tsv as `side round metric value`.
run() {
    out=$("$3" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || {
        echo "$1 run $2 failed (exit $?)" >&2
        exit 1
    }
    json=$(printf '%s\n' "$out" | tail -n 1)
    case $json in
    *'"correct": true'*) ;;
    *)
        echo "$1 run $2 reported correct: false" >&2
        exit 1
        ;;
    esac
    printf '%s\n' "$out" | awk -v side="$1" -v round="$2" '
        # Workload headers: "# W seed S (untraced):".
        /^# [a-z_]+ seed [0-9]+ \(untraced\):/ { w = $2 }
        # "# calibration: ... unscaled wall_s X setup_s Y items_per_s Z"
        /^# calibration:/ {
            for (i = 1; i < NF; i++)
                if ($i == "wall_s" || $i == "setup_s" || $i == "items_per_s")
                    printf "%s\t%s\t%s.%s_unscaled\t%s\n", side, round, w, $i, $(i + 1)
        }
        /^\{/ {
            s = $0
            # One workload names its metrics bare, `all` prefixes them.
            while (match(s, /"[a-z_.]+": \{"value": [-0-9.eE+]+/)) {
                m = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                split(m, part, "\"")
                name = part[2] ~ /\./ ? part[2] : w "." part[2]
                v = m
                sub(/.*"value": /, "", v)
                printf "%s\t%s\t%s\t%s\n", side, round, name, v
            }
            if (match($0, /"failed": [0-9]+/))
                printf "%s\t%s\tfailed\t%s\n", side, round, substr($0, RSTART + 10, RLENGTH - 10)
        }' >>"$runs"
}

r=1
while [ "$r" -le "$rounds" ]; do
    echo "round $r/$rounds" >&2
    if [ $((r % 2)) -eq 1 ]; then
        run base "$r" "$base_bin"
        run head "$r" "$head_bin"
    else
        run head "$r" "$head_bin"
        run base "$r" "$base_bin"
    fi
    r=$((r + 1))
done

echo "workload $workload, seed $seed, $rounds rounds x ${seconds} s, base $(git rev-parse --short "$base") vs current checkout"
# Per metric: each side's median with its quartiles, the change of the
# medians, and in how many rounds head beat base.
printf '%-34s %-36s %-36s %8s %s\n' metric 'base median [q1 q3]' 'head median [q1 q3]' change head_better
awk -F '\t' -v rounds="$rounds" '
    # quantile(list, q): the q-quantile of a space-separated list,
    # interpolated between order statistics.
    function quantile(list, q,    a, n, i, j, t, h) {
        n = split(list, a, " ")
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] + 0 > t + 0; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
        h = 1 + (n - 1) * q
        i = int(h)
        return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
    }
    function side(s, m) {
        return sprintf("%.6g [%.6g %.6g]", quantile(vals[s, m], 0.5),
            quantile(vals[s, m], 0.25), quantile(vals[s, m], 0.75))
    }
    !($3 in seen) { seen[$3] = 1; order[++k] = $3 }
    {
        vals[$1, $3] = vals[$1, $3] " " $4
        at[$1, $2, $3] = $4
    }
    END {
        for (i = 1; i <= k; i++) {
            m = order[i]
            b = quantile(vals["base", m], 0.5)
            h = quantile(vals["head", m], 0.5)
            change = b != 0 ? sprintf("%+.1f%%", 100 * (h - b) / b) : "n/a"
            # Rounds in which head beat base on this metric: only
            # items_per_s is better higher.
            wins = 0
            for (r = 1; r <= rounds; r++) {
                d = at["head", r, m] - at["base", r, m]
                if (m ~ /items_per_s/ ? d > 0 : d < 0) wins++
            }
            printf "%-34s %-36s %-36s %8s %d/%d\n", m, side("base", m), side("head", m), change, wins, rounds
        }
    }' "$runs"
