#!/bin/sh
# bench_compare.sh — guard the allocator perf trajectory: compare the
# freshly recorded BENCH_alloc.json against the baseline committed at HEAD,
# and fail when a phase's wall time regresses more than BENCH_REGRESS_PCT
# percent (default 100, i.e. a 2x slowdown). Deltas are printed either way,
# so CI logs show the trajectory even when the gates pass.
#
# The comparison is skipped (with a reason) when there is no committed
# baseline, the baseline covers a different benchmark shape, or a file is
# unreadable — a changed benchmark is a new baseline, not a regression. CI
# sets BENCH_REGRESS_PCT higher to absorb the variance between the
# committing machine and the runner.
set -eu
cd "$(dirname "$0")/.."

threshold="${BENCH_REGRESS_PCT:-100}"

record=BENCH_alloc.json
if [ ! -f "$record" ]; then
	echo "bench_compare: $record missing; run 'make bench-alloc' first" >&2
	exit 1
fi
basefile=$(mktemp)
trap 'rm -f "$basefile"' EXIT
if ! git show "HEAD:$record" >"$basefile" 2>/dev/null; then
	echo "bench_compare: no committed $record baseline at HEAD; skipping"
	exit 0
fi
python3 - "$basefile" "$record" "$threshold" <<'EOF'
import json, sys

try:
    base = json.load(open(sys.argv[1]))
    cur = json.load(open(sys.argv[2]))
except (ValueError, OSError) as e:
    print(f"bench_compare: unreadable record ({e}); skipping")
    sys.exit(0)

threshold = float(sys.argv[3])

def gate(label, b, c):
    delta_pct = (c - b) / b * 100.0
    print(f"bench_compare: {label}: baseline {b:.4g} -> current {c:.4g} "
          f"({delta_pct:+.1f}%, threshold +{threshold:.0f}%)")
    if delta_pct > threshold:
        print(f"bench_compare: FAIL — {label} regressed "
              f"{delta_pct:.1f}% > {threshold:.0f}%", file=sys.stderr)
        return 1
    return 0

failures = 0
# BENCH_alloc.json: gate each phase's summed ns/op separately over the
# (phase, series, vms) rows present in both records — individual
# micro-rows at -benchtime 2x are too noisy to gate one by one
# (run-to-run swings near 2x have been observed on the small rows),
# but per-phase sums are dominated by the big fills, where a real
# regression shows. Gating per phase (scale trajectory, matrix-update,
# fill-scoring, placement-total) means one phase cannot silently
# regress while another improves enough to hide it in a global sum.
# Per-row deltas are printed for the logs; rows only one side has are
# a changed benchmark shape and drop out of both sums; phases only one
# side has are a new baseline, not a regression.
base_rows = {(r.get("phase", "scale"), r["series"], r["vms"]): r
             for r in base.get("rows", [])}
sums = {}
for r in cur["rows"]:
    key = (r.get("phase", "scale"), r["series"], r["vms"])
    br = base_rows.get(key)
    if br is None:
        print(f"bench_compare: no baseline row for {key}; skipping it")
        continue
    b, c = br["ns_per_op"], r["ns_per_op"]
    if b <= 0 or c <= 0:
        continue
    delta_pct = (c - b) / b * 100.0
    print(f"bench_compare: alloc {key[0]}/{key[1]}/vms={key[2]}: "
          f"baseline {b:.4g} -> current {c:.4g} ({delta_pct:+.1f}%, informational)")
    bs, cs = sums.get(key[0], (0.0, 0.0))
    sums[key[0]] = (bs + b, cs + c)
if sums:
    for phase in sorted(sums):
        bs, cs = sums[phase]
        if bs > 0 and cs > 0:
            failures += gate(f"alloc phase {phase!r} wall time (summed ns/op)", bs, cs)
else:
    print("bench_compare: no comparable allocator rows; skipping")
sys.exit(1 if failures else 0)
EOF
echo "bench_compare: OK"
