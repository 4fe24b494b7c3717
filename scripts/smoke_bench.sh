#!/usr/bin/env sh
# Smoke test for the bench artifact pipeline: runs one figure bench and
# one micro bench at minimal fidelity and asserts that
#   - each emits a parseable BENCH_<name>.json to FIFL_BENCH_OUTDIR,
#   - the figure bench streams one JSONL trace record per round to
#     FIFL_TRACE_OUT.
#
# It also smokes the fifl::net runtime: if the polycentric_cluster
# example binary exists (examples-bin-dir, 2nd arg), a short loopback
# cluster run must complete and its trace must carry the "net" block.
#
# The wire-bandwidth legs (ext_net_cluster, micro_codec) write their
# BENCH_*.json into a *persistent* outdir — FIFL_BENCH_OUTDIR if set,
# else <bench-bin-dir>/bench_out — so bytes/round and codec-throughput
# baselines accumulate in the build tree instead of vanishing with the
# scratch dir.
#
# Usage: smoke_bench.sh [bench-bin-dir] [examples-bin-dir]
#   bench-bin-dir defaults to ./build/bench; examples-bin-dir to its
#   sibling ../examples (skipped when absent). Registered as a ctest
#   (bench_smoke) so `ctest` exercises the whole artifact path.
set -eu

BIN_DIR="${1:-build/bench}"
EXAMPLES_DIR="${2:-$BIN_DIR/../examples}"
ROUNDS="${FIFL_BENCH_ROUNDS:-3}"
BENCH_OUTDIR="${FIFL_BENCH_OUTDIR:-$BIN_DIR/bench_out}"

for bin in fig11_reputation micro_metrics_overhead ext_net_cluster \
           micro_codec micro_chain_throughput micro_tensor_kernels \
           micro_detection_cost micro_incentive_cost; do
  if [ ! -x "$BIN_DIR/$bin" ]; then
    echo "smoke_bench: missing binary $BIN_DIR/$bin" >&2
    exit 1
  fi
done

OUTDIR="$(mktemp -d)"
trap 'rm -rf "$OUTDIR"' EXIT
mkdir -p "$BENCH_OUTDIR"

echo "== fig11_reputation (FIFL_BENCH_ROUNDS=$ROUNDS) =="
FIFL_BENCH_ROUNDS="$ROUNDS" FIFL_BENCH_OUTDIR="$OUTDIR" \
  FIFL_TRACE_OUT="$OUTDIR/trace.jsonl" \
  "$BIN_DIR/fig11_reputation" > "$OUTDIR/fig11.log"

echo "== micro_metrics_overhead =="
FIFL_BENCH_OUTDIR="$OUTDIR" \
  "$BIN_DIR/micro_metrics_overhead" --benchmark_min_time=0.01 \
  > "$OUTDIR/micro.log"

echo "== ext_net_cluster (FIFL_BENCH_ROUNDS=$ROUNDS, outdir $BENCH_OUTDIR) =="
# Wire tracing on: every node streams node_<n>.trace.jsonl into the
# scratch dir, which fifl-tracecat must merge and validate below.
FIFL_BENCH_ROUNDS="$ROUNDS" FIFL_BENCH_OUTDIR="$BENCH_OUTDIR" \
  FIFL_TRACE_DIR="$OUTDIR/wire_trace" \
  "$BIN_DIR/ext_net_cluster" > "$OUTDIR/ext_net_cluster.log"

echo "== micro_codec (outdir $BENCH_OUTDIR) =="
FIFL_BENCH_OUTDIR="$BENCH_OUTDIR" \
  "$BIN_DIR/micro_codec" --benchmark_min_time=0.01 \
  > "$OUTDIR/micro_codec.log"

echo "== micro_tensor_kernels (outdir $BENCH_OUTDIR) =="
# Kernel-layer baselines (GB/s per ISA, scalar-vs-dispatched bitwise gate
# inside the bench) accumulate next to the bandwidth numbers.
FIFL_BENCH_OUTDIR="$BENCH_OUTDIR" \
  "$BIN_DIR/micro_tensor_kernels" --benchmark_min_time=0.01 \
  > "$OUTDIR/micro_tensor_kernels.log"

echo "== micro_detection_cost (outdir $BENCH_OUTDIR) =="
FIFL_BENCH_OUTDIR="$BENCH_OUTDIR" \
  "$BIN_DIR/micro_detection_cost" --benchmark_min_time=0.01 \
  > "$OUTDIR/micro_detection_cost.log"

echo "== micro_incentive_cost (outdir $BENCH_OUTDIR) =="
FIFL_BENCH_OUTDIR="$BENCH_OUTDIR" \
  "$BIN_DIR/micro_incentive_cost" --benchmark_min_time=0.01 \
  > "$OUTDIR/micro_incentive_cost.log"

echo "== micro_chain_throughput (outdir $BENCH_OUTDIR) =="
# Audit-chain baseline: records/sec through the quorum-seal protocol and
# the audit-proof round-trip latency accumulate next to the bandwidth
# numbers.
FIFL_BENCH_OUTDIR="$BENCH_OUTDIR" \
  "$BIN_DIR/micro_chain_throughput" --benchmark_min_time=0.01 \
  > "$OUTDIR/micro_chain.log"

fail() {
  echo "smoke_bench: $1" >&2
  exit 1
}

for json in BENCH_fig11_reputation.json BENCH_micro_metrics_overhead.json; do
  [ -s "$OUTDIR/$json" ] || fail "$json missing or empty"
done
# The bandwidth baselines must land in the persistent outdir.
for json in BENCH_ext_net_cluster.json BENCH_ext_net_compression.json \
            BENCH_micro_codec.json BENCH_micro_chain_throughput.json \
            BENCH_micro_tensor_kernels.json BENCH_micro_detection_cost.json \
            BENCH_micro_incentive_cost.json; do
  [ -s "$BENCH_OUTDIR/$json" ] || fail "$json missing or empty"
done
[ -s "$BENCH_OUTDIR/ext_net_compression.csv" ] || \
  fail "ext_net_compression.csv not written"
[ -s "$OUTDIR/fig11_reputation.csv" ] || fail "fig11_reputation.csv not written"
[ -s "$OUTDIR/trace.jsonl" ] || fail "trace.jsonl not written"

TRACE_LINES="$(wc -l < "$OUTDIR/trace.jsonl")"
[ "$TRACE_LINES" -eq "$ROUNDS" ] || \
  fail "expected $ROUNDS trace records, got $TRACE_LINES"

# Merged-timeline gate: the traced ext_net_cluster run must merge into
# schema-valid Chrome trace JSON with cross-node flows in every round.
TRACECAT="$BIN_DIR/../tools/trace/fifl-tracecat"
if [ -x "$TRACECAT" ]; then
  echo "== fifl-tracecat (merge + validate) =="
  ls "$OUTDIR/wire_trace"/node_*.trace.jsonl > /dev/null 2>&1 || \
    fail "traced cluster run left no node_*.trace.jsonl files"
  "$TRACECAT" "$OUTDIR/wire_trace" -o "$OUTDIR/wire_trace/merged.json" || \
    fail "fifl-tracecat merge failed"
  "$TRACECAT" --validate "$OUTDIR/wire_trace/merged.json" \
    --min-flows-per-round 1 || fail "fifl-tracecat --validate failed"
else
  echo "smoke_bench: fifl-tracecat not built, merge gate skipped"
fi

if command -v python3 > /dev/null 2>&1; then
  python3 - "$OUTDIR" "$ROUNDS" "$BENCH_OUTDIR" <<'EOF'
import json, os, sys, pathlib
outdir, rounds = pathlib.Path(sys.argv[1]), int(sys.argv[2])
benchdir = pathlib.Path(sys.argv[3])

fig = json.loads((outdir / "BENCH_fig11_reputation.json").read_text())
for key in ("bench", "wall_seconds", "table", "metrics"):
    assert key in fig, f"BENCH_fig11_reputation.json missing '{key}'"
assert fig["bench"] == "fig11_reputation"
assert fig["table"]["rows"] > 0 and fig["table"]["checksum"].startswith("0x")

micro = json.loads((outdir / "BENCH_micro_metrics_overhead.json").read_text())
assert micro["benchmarks"], "micro bench json has no benchmark entries"

codec = json.loads((benchdir / "BENCH_micro_codec.json").read_text())
assert codec["benchmarks"], "micro_codec json has no benchmark entries"

chain = json.loads((benchdir / "BENCH_micro_chain_throughput.json").read_text())
seal = [b for b in chain["benchmarks"] if b["name"].startswith("BM_QuorumSeal")]
assert seal, "micro_chain_throughput json has no BM_QuorumSeal entries"
for b in seal:
    assert b.get("items_per_second", 0) > 0, \
        f"{b['name']} missing records/sec (items_per_second)"
    assert b.get("real_time", 0) > 0, f"{b['name']} missing seal latency"
audit = [b for b in chain["benchmarks"]
         if b["name"].startswith("BM_AuditProveAndVerify")]
assert audit, "micro_chain_throughput json has no BM_AuditProveAndVerify entries"
# A worker's anchored audit certifies the same number of headers at every
# chain length; a count that grows means verification went back to
# re-checking the chain from genesis.
certified = {b["name"]: b.get("headers_verified", 0) for b in audit}
assert all(n > 0 for n in certified.values()), \
    f"BM_AuditProveAndVerify missing headers_verified counters: {certified}"
assert len(set(certified.values())) == 1, \
    f"anchored audit cost grows with the chain: headers_verified {certified}"
proof = [b for b in chain["benchmarks"]
         if b["name"].startswith("BM_AuditProofBytes")]
assert proof, "micro_chain_throughput json has no BM_AuditProofBytes entries"
for b in proof:
    full = b.get("full_bytes", 0)
    cached = b.get("cached_bytes", 0)
    assert full > 0 and cached > 0, f"{b['name']} missing proof byte counters"
    assert cached < full, \
        f"{b['name']}: cached proof ({cached}B) not smaller than full ({full}B)"

# Kernel-layer gates: every leg passed its in-bench scalar-vs-dispatched
# bitwise check (no error_occurred), and on AVX2 hardware the detection /
# incentive dot paths must report the dispatched ISA and >=4x speedup over
# the pre-kernel-layer serial loops. On non-AVX2 hosts — or when the
# operator forced FIFL_KERNEL_ISA=scalar, which legitimately pins the
# dispatch to the fallback — the speedup gate is skipped VISIBLY, not
# silently greened.
forced_scalar = os.environ.get("FIFL_KERNEL_ISA", "").lower() == "scalar"
kern = json.loads((benchdir / "BENCH_micro_tensor_kernels.json").read_text())
assert kern["benchmarks"], "micro_tensor_kernels json has no benchmark entries"
for b in kern["benchmarks"]:
    assert not b.get("error_occurred"), \
        f"{b['name']}: in-bench bitwise equivalence gate failed: " \
        f"{b.get('error_message')}"
avx2 = any(b.get("avx2_supported") for b in kern["benchmarks"])
if avx2 and not forced_scalar:
    assert any(b["name"].startswith("BM_Dot/avx2") for b in kern["benchmarks"]), \
        "AVX2 supported but micro_tensor_kernels has no avx2 legs"

for stem, leg in (("micro_detection_cost", "BM_TaylorDotPathKernels"),
                  ("micro_incentive_cost", "BM_ContributionDistanceKernels")):
    doc = json.loads((benchdir / f"BENCH_{stem}.json").read_text())
    rows = [b for b in doc["benchmarks"] if b["name"].startswith(leg)]
    assert rows, f"{stem} json has no {leg} entries"
    for b in rows:
        assert not b.get("error_occurred"), \
            f"{b['name']}: bitwise equivalence gate failed: " \
            f"{b.get('error_message')}"
        if forced_scalar:
            print(f"smoke_bench: {b['name']}: FIFL_KERNEL_ISA=scalar "
                  "forced, 4x dot-path speedup gate SKIPPED")
        elif b.get("avx2_supported"):
            assert b.get("isa_avx2") == 1, \
                f"{b['name']}: AVX2 supported but dispatch chose " \
                "the scalar table"
            speedup = b.get("speedup_vs_serial", 0)
            assert speedup >= 4.0, \
                f"{b['name']}: dot-path speedup {speedup:.2f}x < 4x " \
                "over the pre-kernel serial baseline"
        else:
            print(f"smoke_bench: {b['name']}: AVX2 unavailable, "
                  "4x dot-path speedup gate SKIPPED (scalar-only host)")

net = json.loads((benchdir / "BENCH_ext_net_cluster.json").read_text())
per_type = [k for k in net["metrics"]["counters"]
            if k.startswith("net.bytes_tx.")]
assert "net.bytes_tx.gradient_upload" in per_type, \
    f"per-type byte counters missing from metrics snapshot: {per_type}"
assert "net.bytes_rx.gradient_upload" in net["metrics"]["counters"], \
    "per-type rx byte counters missing from metrics snapshot"
hists = net["metrics"]["histograms"]
for phase in ("broadcast", "collect", "assess"):
    h = hists.get(f"net.phase.{phase}_ms")
    assert h and h["count"] > 0, f"net.phase.{phase}_ms histogram missing"
    for q in ("p50", "p90", "p99"):
        assert q in h, f"net.phase.{phase}_ms missing {q}"
handle = [k for k in hists if k.startswith("net.handle_ms.")]
assert handle and any(hists[k]["count"] > 0 for k in handle), \
    f"per-message-type handle histograms missing: {handle}"

comp = json.loads((benchdir / "BENCH_ext_net_compression.json").read_text())
assert comp["table"]["rows"] == 3, "codec sweep should have 3 legs"

traces = [json.loads(l) for l in (outdir / "trace.jsonl").read_text().splitlines()]
assert len(traces) == rounds
for i, t in enumerate(traces):
    assert t["round"] == i
    assert set(t["phases_ms"]) == {"local_train", "channel", "detect",
                                   "aggregate", "ledger"}
    for w in t["workers"]:
        for field in ("id", "arrived", "accepted", "uncertain",
                      "detection_score", "reputation", "contribution",
                      "reward"):
            assert field in w, f"worker trace missing '{field}'"
print("smoke_bench: python checks passed")
EOF
else
  echo "smoke_bench: python3 unavailable, skipped JSON deep checks"
fi

if [ -x "$EXAMPLES_DIR/polycentric_cluster" ]; then
  echo "== polycentric_cluster (loopback, $ROUNDS rounds) =="
  FIFL_TRACE_OUT="$OUTDIR/net_trace.jsonl" \
    "$EXAMPLES_DIR/polycentric_cluster" --rounds="$ROUNDS" --loopback=1 \
    > "$OUTDIR/cluster.log"
  grep -q "final model" "$OUTDIR/cluster.log" || \
    fail "polycentric_cluster did not finish"
  NET_LINES="$(wc -l < "$OUTDIR/net_trace.jsonl")"
  [ "$NET_LINES" -eq "$ROUNDS" ] || \
    fail "expected $ROUNDS net trace records, got $NET_LINES"
  grep -q '"net":{"bytes_tx"' "$OUTDIR/net_trace.jsonl" || \
    fail "net trace records missing the \"net\" block"
  grep -q '"bytes_rx_by_type"' "$OUTDIR/net_trace.jsonl" || \
    fail "net trace records missing bytes_rx_by_type"
else
  echo "smoke_bench: polycentric_cluster not built, net smoke skipped"
fi

echo "smoke_bench: OK"
