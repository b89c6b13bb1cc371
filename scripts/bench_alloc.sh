#!/bin/sh
# bench_alloc.sh — run BenchmarkAllocatorScale (the scaling trajectory:
# exact Fig.-2 semantics up to 2k VMs, blocked evaluation at 1k/2k/10k) and
# BenchmarkAllocPhases (per-phase attribution: matrix-update, fill-scoring,
# placement-total) and record both in BENCH_alloc.json, including the
# 1k→10k blocked scaling ratio (sub-quadratic means ratio < 100 for 10× VMs).
#
# Set ALLOC_CPUPROFILE=<path> to also capture a CPU profile of the 2k-VM
# exact placement for offline inspection (CI uploads it as an artifact).
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench 'BenchmarkAllocatorScale|BenchmarkAllocPhases' -benchtime 2x . | tee "$out"

if [ -n "${ALLOC_CPUPROFILE:-}" ]; then
	echo "bench_alloc: recording CPU profile of the 2k-VM exact placement to $ALLOC_CPUPROFILE"
	go test -run '^$' -bench 'BenchmarkAllocatorScale/exact/vms=2000$' -benchtime 2x \
		-cpuprofile "$ALLOC_CPUPROFILE" . >/dev/null
fi

python3 - "$out" <<'EOF'
import json, re, sys

rows = []
gomaxprocs = 1
for line in open(sys.argv[1]):
    # BenchmarkAllocatorScale/<series>/vms=<n>[-P]  iters  ns/op
    m = re.match(r'BenchmarkAllocatorScale/(\S+?)/vms=(\d+)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op', line)
    if m:
        rows.append({"series": m.group(1), "vms": int(m.group(2)),
                     "ns_per_op": float(m.group(4))})
        if m.group(3):
            gomaxprocs = int(m.group(3))
        continue
    # BenchmarkAllocPhases/<phase>/<series>/vms=<n>[-P]  iters  ns/op
    m = re.match(r'BenchmarkAllocPhases/(\w+)/(\w+)/vms=(\d+)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op', line)
    if m:
        rows.append({"phase": m.group(1), "series": m.group(2),
                     "vms": int(m.group(3)), "ns_per_op": float(m.group(5))})
        if m.group(4):
            gomaxprocs = int(m.group(4))
if not rows:
    sys.exit("bench_alloc: no benchmark rows parsed")

def ns(series, vms, phase=None):
    for r in rows:
        if r["series"] == series and r["vms"] == vms and r.get("phase") == phase:
            return r["ns_per_op"]
    return None

doc = {"benchmark": "BenchmarkAllocatorScale+BenchmarkAllocPhases",
       "gomaxprocs": gomaxprocs, "rows": rows}
lo, hi = ns("block=512", 1000), ns("block=512", 10000)
if lo and hi:
    doc["blocked_scaling_1k_to_10k"] = round(hi / lo, 2)
    doc["sub_quadratic_1k_to_10k"] = hi / lo < 100.0
with open("BENCH_alloc.json", "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print("wrote BENCH_alloc.json")
EOF
cat BENCH_alloc.json
