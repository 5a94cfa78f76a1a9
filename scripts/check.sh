#!/usr/bin/env bash
# Repo-wide check: the src/-vs-tests/oracle boundary, orphan src/
# headers, the tier-1 build + full ctest suite, the sim-versus-socket
# smokes (UDS, chaos, gossip churn, sparsify), then ASan, TSan, and UBSan
# builds of the runtime/net surface (event queue, sim transport, fabric,
# thread pool, fault injector, wire-decoder fuzz, membership) so the
# sanitizer wiring is exercised routinely, not just when someone
# remembers.
#
# Usage: scripts/check.sh [--fast | --san <address|thread|undefined>]
#   --fast       skip the sanitizer builds (tier-1 only)
#   --san NAME   run exactly one sanitizer leg (tier-1 first) — the shape
#                CI uses to parallelize legs across jobs
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
FAST=0
ONLY_SAN=""
case "${1:-}" in
  --fast)
    FAST=1
    ;;
  --san)
    ONLY_SAN="${2:-}"
    case "$ONLY_SAN" in
      address|thread|undefined) ;;
      *)
        echo "error: --san needs one of: address thread undefined" >&2
        exit 2
        ;;
    esac
    ;;
  "")
    ;;
  *)
    echo "error: unknown option '$1' (see usage in header)" >&2
    exit 2
    ;;
esac

echo "==> boundary: src/ never uses the test-only oracle library"
# tests/oracle holds the reference builders and ablation-only schemes
# the suites compare against; production code must not depend on them.
if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]oracle/' src; then
  echo "error: a file under src/ includes an oracle/ header" >&2
  exit 1
fi
if grep -rnw --include=CMakeLists.txt snap_oracle src; then
  echo "error: a src/ CMake target links snap_oracle" >&2
  exit 1
fi

echo "==> orphans: every src/ header has an includer outside tests/"
# A header that only its own .cpp and the suites include is dead code or
# test-only code living in src/. The allowlist waits on ROADMAP item 4(e).
ORPHAN_ALLOWLIST=" consensus/neighbor_planning.hpp "
ORPHANS=0
while IFS= read -r header; do
  rel="${header#src/}"
  [[ "$ORPHAN_ALLOWLIST" == *" $rel "* ]] && continue
  includers="$(grep -rlE --include='*.cpp' --include='*.hpp' \
      --exclude-dir=tests --exclude-dir='build*' --exclude-dir=.git \
      "^[[:space:]]*#[[:space:]]*include[[:space:]]*\"${rel//./\\.}\"" . |
    grep -vxF "./src/${rel%.hpp}.cpp" || true)"
  if [[ -z "$includers" ]]; then
    echo "error: src/$rel has no includer outside tests/ but its own .cpp" >&2
    ORPHANS=1
  fi
done < <(find src -name '*.hpp' | sort)
[[ "$ORPHANS" == 0 ]] || exit 1

echo "==> tier-1: configure + build + ctest (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "==> transport smoke: two-process UDS loopback vs sim oracle"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SMOKE_ARGS=(--nodes=8 --seed=7 --iterations=12 --train=400 --test=100)
build/examples/snap_cli "${SMOKE_ARGS[@]}" \
  --csv="$SMOKE_DIR/sim.csv" >/dev/null
build/examples/snap_cli "${SMOKE_ARGS[@]}" --transport=uds --shards=2 \
  --rendezvous="$SMOKE_DIR" --csv="$SMOKE_DIR/uds.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/sim.csv" "$SMOKE_DIR/uds.csv"; then
  echo "error: UDS 2-shard run diverged from the sim oracle" >&2
  diff "$SMOKE_DIR/sim.csv" "$SMOKE_DIR/uds.csv" | head -20 >&2
  exit 1
fi
# The MLP leg: owner-computed 23,860-double gradient rows cross the wire.
MNIST_ARGS=(--workload=mnist "${SMOKE_ARGS[@]}")
build/examples/snap_cli "${MNIST_ARGS[@]}" \
  --csv="$SMOKE_DIR/mnist-sim.csv" >/dev/null
build/examples/snap_cli "${MNIST_ARGS[@]}" --transport=uds --shards=2 \
  --rendezvous="$SMOKE_DIR/mnist" --csv="$SMOKE_DIR/mnist-uds.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/mnist-sim.csv" "$SMOKE_DIR/mnist-uds.csv"; then
  echo "error: MLP UDS 2-shard run diverged from the sim oracle" >&2
  diff "$SMOKE_DIR/mnist-sim.csv" "$SMOKE_DIR/mnist-uds.csv" | head -20 >&2
  exit 1
fi
echo "    sim and 2-shard UDS trajectories are bitwise identical"

echo "==> chaos smoke: UDS and TCP runs with injected SIGKILLs vs sim oracle"
# Random partitions ride along: the split/heal schedule is part of the
# replayable timeline, so the chaos run must still match the simulator.
CHAOS_ARGS=(--nodes=8 --seed=7 --iterations=60 --train=800 --test=100
            --partition=random:0.05:6 --partition-confirm=1)
build/examples/snap_cli "${CHAOS_ARGS[@]}" \
  --csv="$SMOKE_DIR/chaos-sim.csv" >/dev/null
for CHAOS_TRANSPORT in uds tcp; do
  build/examples/snap_cli "${CHAOS_ARGS[@]}" --transport="$CHAOS_TRANSPORT" \
    --shards=2 --rendezvous="$SMOKE_DIR/chaos-$CHAOS_TRANSPORT" \
    --checkpoint-every=5 --chaos-kill=5 \
    --csv="$SMOKE_DIR/chaos-$CHAOS_TRANSPORT.csv" >/dev/null
  if ! cmp -s "$SMOKE_DIR/chaos-sim.csv" \
      "$SMOKE_DIR/chaos-$CHAOS_TRANSPORT.csv"; then
    echo "error: chaos $CHAOS_TRANSPORT run diverged from the sim oracle" >&2
    diff "$SMOKE_DIR/chaos-sim.csv" "$SMOKE_DIR/chaos-$CHAOS_TRANSPORT.csv" |
      head -20 >&2
    exit 1
  fi
  echo "    chaos $CHAOS_TRANSPORT run (shard kills + checkpoint resume)" \
    "matches bitwise"
done

echo "==> gossip churn smoke: joins, crashes, bursts and splits vs sim oracle"
# The gossip tick builds each node's row and activation gate in the
# node's own task: the 2-shard UDS run must still match the simulator.
GOSSIP_ARGS=(--fabric=gossip --nodes=12 --seed=7 --iterations=60 --train=600
             --test=100 --joiners=3 --crash-rate=0.02 --restart-rate=0.3
             --link-burst=0.05:0.5 --partition=random:0.05:6
             --partition-confirm=1)
build/examples/snap_cli "${GOSSIP_ARGS[@]}" \
  --csv="$SMOKE_DIR/gossip-sim.csv" >/dev/null
build/examples/snap_cli "${GOSSIP_ARGS[@]}" --transport=uds --shards=2 \
  --rendezvous="$SMOKE_DIR/gossip" --csv="$SMOKE_DIR/gossip-uds.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/gossip-sim.csv" "$SMOKE_DIR/gossip-uds.csv"; then
  echo "error: gossip churn UDS run diverged from the sim oracle" >&2
  diff "$SMOKE_DIR/gossip-sim.csv" "$SMOKE_DIR/gossip-uds.csv" | head -20 >&2
  exit 1
fi
# No join means the churn paths never ran and the smoke proves little.
JOINED_COL="$(scripts/csv_column.sh nodes_joined "$SMOKE_DIR/gossip-sim.csv")"
if ! awk -F, -v c="$JOINED_COL" 'NR > 1 && $c > 0 { found = 1 }
    END { exit !found }' "$SMOKE_DIR/gossip-sim.csv"; then
  echo "error: gossip churn smoke saw no join (nodes_joined all zero)" >&2
  exit 1
fi
echo "    gossip churn run matches bitwise on 2-shard UDS"

echo "==> sparsify smoke: cost-pruned run is deterministic and prunes"
SPARSIFY_ARGS=(--nodes=16 --degree=4 --seed=7 --iterations=20 --train=400
               --test=100 --sparsify=cost:0.7 --link-cost=hops)
build/examples/snap_cli "${SPARSIFY_ARGS[@]}" \
  --csv="$SMOKE_DIR/sparsify-1.csv" >/dev/null
build/examples/snap_cli "${SPARSIFY_ARGS[@]}" \
  --csv="$SMOKE_DIR/sparsify-2.csv" >/dev/null
if ! cmp -s "$SMOKE_DIR/sparsify-1.csv" "$SMOKE_DIR/sparsify-2.csv"; then
  echo "error: sparsified rerun diverged from itself" >&2
  diff "$SMOKE_DIR/sparsify-1.csv" "$SMOKE_DIR/sparsify-2.csv" | head -20 >&2
  exit 1
fi
# A zero links_pruned column means the budget did not bite and the smoke
# proves nothing. (The lookup fails the script if the column is gone.)
PRUNED_COL="$(scripts/csv_column.sh links_pruned "$SMOKE_DIR/sparsify-1.csv")"
if ! awk -F, -v c="$PRUNED_COL" 'NR > 1 && $c > 0 { found = 1 }
    END { exit !found }' "$SMOKE_DIR/sparsify-1.csv"; then
  echo "error: sparsified run pruned no links (links_pruned all zero)" >&2
  exit 1
fi
echo "    sparsified rerun is bitwise identical and pruned links"

if [[ "$FAST" == 1 ]]; then
  echo "==> --fast: skipping sanitizer builds"
  exit 0
fi

SANITIZERS=(address thread undefined)
[[ -n "$ONLY_SAN" ]] && SANITIZERS=("$ONLY_SAN")

for san in "${SANITIZERS[@]}"; do
  dir="build-${san/address/asan}"
  dir="${dir/thread/tsan}"
  dir="${dir/undefined/ubsan}"
  echo "==> ${san} sanitizer: configure + build + run (${dir}/)"
  cmake -B "$dir" -S . -DSNAP_SANITIZE="$san" >/dev/null
  # snap_san_tests depends on every binary labelled `san` in
  # tests/CMakeLists.txt (the concurrency- and event-driven surface the
  # sanitizers are for), so the build and the label below cannot drift.
  cmake --build "$dir" -j "$JOBS" --target snap_san_tests
  # `-LE slow` keeps long-horizon sweeps out of the sanitizer budget —
  # every san test must finish well under 30 s per binary.
  (cd "$dir" &&
    UBSAN_OPTIONS=print_stacktrace=1 \
      ctest -L san -LE slow --output-on-failure -j "$JOBS")
done

echo "==> all checks passed"
