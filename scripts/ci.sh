#!/usr/bin/env bash
# Local CI: everything that must be green before a change lands.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# Panic-site stage: no `.unwrap()` or `.expect(` in tdstore's non-test
# code (everything before a file's `#[cfg(test)]`, doc comments aside).
# The store's checkpoint log is the only durable copy of its state, so a
# bad byte or a failed disk call there must come back as an error.
echo "==> no unwrap/expect in tdstore non-test code"
panic_sites="$(git ls-files 'crates/tdstore/src/*.rs' | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /\.unwrap\(\)|\.expect\(/ && !/^ *\/\/[\/!]/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$panic_sites" ]]; then
    echo "PANIC-SITE FAILURE: unwrap/expect in tdstore non-test code:" >&2
    echo "$panic_sites" >&2
    exit 1
fi

# Chaos stage: the convergence test must hold for every seed in the fixed
# matrix. Seeds run one at a time so a failure names the guilty seed
# (reproduce with: CHAOS_SEEDS=<seed> cargo test -p tchaos --test convergence).
CHAOS_SEEDS=(3 7 11 23 42)
echo "==> chaos convergence, seeds: ${CHAOS_SEEDS[*]}"
for seed in "${CHAOS_SEEDS[@]}"; do
    if ! CHAOS_SEEDS="$seed" cargo test -p tchaos --test convergence --quiet; then
        echo "CHAOS FAILURE at seed $seed" >&2
        exit 1
    fi
done

# Observability stage: the full-stack example must expose every metric
# family the dashboards are built on, in one scrape body, with real
# samples in the whole-pipeline latency histogram.
echo "==> observability smoke (streaming_pipeline exposition)"
expo="$(cargo run --release -p tencentrec --example streaming_pipeline 2>/dev/null)"
for family in \
    tstorm_exec_latency_seconds tstorm_queue_depth \
    tstorm_backpressure_stalls_total tstorm_pipeline_latency_seconds \
    tstorm_batch_size tencentrec_pruning_tracked_pairs \
    tencentrec_history_log_entries \
    tdaccess_produced_total tdaccess_consumed_total tdaccess_consumer_lag \
    tdstore_ops_total; do
    if ! grep -q "^$family" <<<"$expo"; then
        echo "OBSERVABILITY FAILURE: family $family missing from exposition" >&2
        exit 1
    fi
done
count="$(grep '^tstorm_pipeline_latency_seconds_count' <<<"$expo" | awk '{print $2}')"
if [[ -z "$count" || "$count" == "0" ]]; then
    echo "OBSERVABILITY FAILURE: pipeline latency histogram is empty" >&2
    exit 1
fi
# The store's conditional writes must be doing their job: list and ring
# updates that change no byte are counted, not written.
unchanged="$(grep '^tdstore_ops_total{op="unchanged"}' <<<"$expo" | awk '{print $2}')"
if [[ -z "$unchanged" || "$unchanged" == "0" ]]; then
    echo "OBSERVABILITY FAILURE: tdstore_ops_total{op=\"unchanged\"} missing or zero" >&2
    exit 1
fi
echo "    exposition OK (pipeline latency samples: $count, unchanged store ops: $unchanged)"

# Benchmark stage: the manifest must agree with the compiled-in metric
# tables, a short traced ingest_broad run — the whole CF pipeline
# against the in-memory reference — must come out correct, an untraced
# one must stay under a peak-RSS ceiling, a short untraced fresh_hot run
# must stay fresh, and a short cluster_edge run — the tuple and acker
# wire codecs between real processes — must verify and stay fast.
echo "==> tbench (--validate, traced ingest_broad smoke, ingest_broad peak RSS, fresh_hot freshness, cluster_edge)"
cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- --validate
tbench_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
    --workload ingest_broad --seed 1 --seconds 2 --trace 1 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$tbench_out"; then
    echo "TBENCH FAILURE: ingest_broad did not verify:" >&2
    echo "$tbench_out" >&2
    exit 1
fi
# Replay state must stay sized by what can still replay: at this size the
# store holds 67.7 bytes per key (65,720 keys, 4.45 MB) with counter rings
# and history replay logs trimmed by the replay horizon, 93.2 with every
# user carrying a 256-entry log. The ceiling sits ~25% above the former,
# so a regrown log trips it.
tbench_metric() {
    grep -o "\"$2\": {\"value\": [0-9.e+-]*" <<<"$1" | awk '{print $NF}'
}
store_bytes="$(tbench_metric "$tbench_out" tdstore.bytes_end)"
store_keys="$(tbench_metric "$tbench_out" tdstore.keys_end)"
if ! awk -v b="$store_bytes" -v k="$store_keys" 'BEGIN { exit !(k > 0 && b / k <= 85) }'; then
    echo "TBENCH FAILURE: tdstore holds $store_bytes bytes in $store_keys keys (> 85 bytes/key)" >&2
    exit 1
fi
# Memory: the store keeps one copy of its state. Three 2-s untraced
# seed-1 runs read a peak of 26.98-27.15 MiB that way, 37.35-37.54 MiB
# with a second in-memory copy of every data instance (the former
# in-process slave replica). The ceiling sits between the two, so a
# second copy trips it. At this size a key boxed on the heap no longer
# shows (27.09-27.37 MiB with every MDB key boxed); the MDB unit test
# `an_entry_fills_one_48_byte_slot` guards that layout instead.
rss_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
    --workload ingest_broad --seed 1 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$rss_out"; then
    echo "TBENCH FAILURE: untraced ingest_broad did not verify:" >&2
    echo "$rss_out" >&2
    exit 1
fi
peak_rss="$(tbench_metric "$rss_out" peak_rss_mib)"
if ! awk -v r="$peak_rss" 'BEGIN { exit !(r > 0 && r <= 32) }'; then
    echo "TBENCH FAILURE: ingest_broad peak RSS $peak_rss MiB (> 32 MiB)" >&2
    exit 1
fi
# Freshness: an append wakes the idle spout that reads it. With the wake,
# five 2-s untraced runs read a p50 of 171-187 us; left to the idle
# backoff, 672-724 us. The ceiling sits 2x above the worst of the former
# and far below the latter, so a spout that waits for its backoff again
# trips it.
fresh_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
    --workload fresh_hot --seed 1 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$fresh_out"; then
    echo "TBENCH FAILURE: fresh_hot did not verify:" >&2
    echo "$fresh_out" >&2
    exit 1
fi
fresh_p50="$(tbench_metric "$fresh_out" latency_p50_us)"
if ! awk -v p="$fresh_p50" 'BEGIN { exit !(p > 0 && p <= 375) }'; then
    echo "TBENCH FAILURE: fresh_hot freshness p50 $fresh_p50 us (> 375 us)" >&2
    exit 1
fi
# Remote edge: frames are written from the runtime's batch arenas and
# read straight into them, no owned tuple per record. On a 2-core box,
# 2-s untraced runs read 1.14-2.07M tuples/s that way (29 runs, median
# 1.54M) and 0.70-1.25M with a `WireTuple` built per tuple at each end
# (24 runs, median 0.94M, alternated with the former). The box drifts
# enough that the two ranges overlap, so no floor splits every run: this
# one sits 8% under the slowest batch-frame run and above 18 of the 24
# per-tuple runs, so a per-tuple flatten or regroup on either side
# trips it in most runs and no batch-frame run did.
edge_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
    --workload cluster_edge --seed 1 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$edge_out"; then
    echo "TBENCH FAILURE: cluster_edge did not verify:" >&2
    echo "$edge_out" >&2
    exit 1
fi
edge_ops="$(tbench_metric "$edge_out" ops_per_s)"
if ! awk -v o="$edge_ops" 'BEGIN { exit !(o >= 1050000) }'; then
    echo "TBENCH FAILURE: cluster_edge $edge_ops tuples/s (< 1.05M/s)" >&2
    exit 1
fi
# The reader's query latency under ingest is reported, not gated: a 2-s
# run is too noisy for a ceiling (the allocation guard in
# crates/core/tests/recommend_allocs.rs is the deterministic check).
ingest_p50="$(tbench_metric "$rss_out" latency_p50_us)"
echo "    tbench OK ($store_bytes bytes in $store_keys keys, peak RSS $peak_rss MiB, ingest_broad query p50 $ingest_p50 us, fresh_hot p50 $fresh_p50 us, cluster_edge $edge_ops tuples/s)"

# Multi-process stage: supervisor + 2 worker OS processes run the CF
# pipeline with tuples crossing process boundaries over batched TCP;
# worker 0 is killed mid-run and must be respawned, resume from its
# committed offsets, and drain counts byte-identical to a fault-free
# single-process run. The example asserts all of that internally and
# prints the markers checked here.
echo "==> multi-process cluster smoke (cluster_pipeline)"
cluster_out="$(cargo run --release -p tcluster --example cluster_pipeline 2>/dev/null)"
for marker in \
    "cluster: supervisor at" \
    "cluster: killing worker 0" \
    "cluster: worker respawned" \
    "cluster: drained counts byte-identical to fault-free baseline" \
    "CLUSTER PIPELINE OK"; do
    if ! grep -q "$marker" <<<"$cluster_out"; then
        echo "CLUSTER FAILURE: marker \"$marker\" missing from output:" >&2
        echo "$cluster_out" >&2
        exit 1
    fi
done
echo "    cluster smoke OK ($(grep -c '^cluster:' <<<"$cluster_out") markers)"

# Gray-failure stage: the spout worker is SIGSTOPped (alive but silent)
# mid-run. Process reaping can never see that; the heartbeat lease must
# expire it (asserted via the tcluster_lease_expired scrape line), the
# generation fence must shut out the zombie, and the respawned worker
# must converge byte-identical to the fault-free baseline.
echo "==> gray-failure smoke (SIGSTOP + lease expiry, gray_failure)"
gray_out="$(cargo run --release -p tcluster --example gray_failure 2>/dev/null)"
for marker in \
    "tguard: stalling worker 0 (SIGSTOP)" \
    "tguard: lease expired (scrape: tcluster_lease_expired" \
    "tguard: worker 0 respawned (generation" \
    "tguard: converged after gray failure (drain verified" \
    "GRAY FAILURE OK"; do
    if ! grep -qF "$marker" <<<"$gray_out"; then
        echo "GRAY FAILURE STAGE FAILED: marker \"$marker\" missing from output:" >&2
        echo "$gray_out" >&2
        exit 1
    fi
done
echo "    gray failure OK ($(grep -c '^tguard:' <<<"$gray_out") markers)"

# Cold-restart stage: the checkpoint/restore example runs the CF pipeline
# in a child process, SIGKILLs it mid-run after the manifest has advanced,
# restores a fresh store from the newest durable snapshot, replays only
# the access-log tail, and asserts the similarity tables are
# byte-identical to a fault-free baseline. The markers prove each phase
# actually happened (checkpointing child, real kill, snapshot restore).
echo "==> cold-restart smoke (SIGKILL + snapshot restore, cold_restart)"
restart_out="$(cargo run --release -p ckpt --example cold_restart 2>/dev/null)"
for marker in \
    "checkpointing at" \
    "(SIGKILL)" \
    "tsnap: restored epoch" \
    "tsnap: tables byte-identical to fault-free baseline" \
    "COLD RESTART OK"; do
    if ! grep -q "$marker" <<<"$restart_out"; then
        echo "COLD RESTART FAILURE: marker \"$marker\" missing from output:" >&2
        echo "$restart_out" >&2
        exit 1
    fi
done
echo "    cold restart OK ($(grep -c '^tsnap' <<<"$restart_out") markers)"

# Incremental-checkpoint stage: the child publishes a full base plus a
# chain of delta checkpoints and is SIGKILLed mid-chain; the parent must
# restore through base + deltas (asserted via the tsnap_restored_epoch
# scrape), compact the access log below the restored consumer floor
# (asserted via the tdaccess_truncated_segments scrape), and replay the
# tail of the *compacted* log byte-identical to a fault-free baseline.
echo "==> incremental-checkpoint smoke (SIGKILL mid-chain, incremental_restart)"
inc_out="$(cargo run --release -p ckpt --example incremental_restart 2>/dev/null)"
for marker in \
    "killed child mid-chain" \
    "restored epoch" \
    "via base+delta chain" \
    "scrape tsnap_restored_epoch" \
    "tdaccess: compaction truncated" \
    "tsnap: tables byte-identical to fault-free baseline after compaction" \
    "INCREMENTAL RESTART OK"; do
    if ! grep -q "$marker" <<<"$inc_out"; then
        echo "INCREMENTAL RESTART FAILURE: marker \"$marker\" missing from output:" >&2
        echo "$inc_out" >&2
        exit 1
    fi
done
echo "    incremental restart OK ($(grep -c '^tsnap\|^tdaccess' <<<"$inc_out") markers)"

# Recovery gate: snapshot restore + tail replay must beat a full-log
# replay by at least 5x on a disk-spilled log (smoke size), and the
# steady-state delta checkpoint must stay under 0.3x of the full blob it
# patches. Rewrites the recovery section of BENCH_topology.json; the
# committed baseline is restored below unless re-baselining.
echo "==> time-to-recover + delta-ratio gate (smoke)"
cargo run --release -p bench --bin recovery_bench -- --smoke --check

# Throughput gate: a smoke-size batch-transport run must stay within 20%
# of the committed BENCH_topology.json baseline, allocate at most 3.1
# allocations per tuple on the batched shuffle edge, and keep the
# user_history execute p99 under 500us (the in-place history update).
# After an intentional perf change, re-baseline with:
# BENCH_REBASELINE=1 scripts/ci.sh (or re-run scripts/bench.sh and commit
# the refreshed report; the allocation and latency ceilings are absolute
# and still apply). One retry: the smoke run is ~25 ms of work, so a noisy
# neighbor alone can push a single run past the 20% floor; a real
# regression fails both runs.
echo "==> topology throughput gate (smoke)"
if ! cargo run --release -p bench --bin topology_bench -- --smoke --check; then
    echo "    gate failed once; retrying to rule out machine noise"
    cargo run --release -p bench --bin topology_bench -- --smoke --check
fi
if [[ "${BENCH_REBASELINE:-0}" != "1" ]]; then
    # The check pass rewrites the smoke section with this run's (noisy)
    # numbers; restore the committed baseline unless re-baselining.
    git checkout -- BENCH_topology.json 2>/dev/null || true
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

# Docs stage: broken intra-doc links (e.g. to a deleted type) fail here.
echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "CI green."

# Size, reported and not gated: the workspace's Rust lines outside the
# vendored stubs, so a change's before/after line count is one command.
echo "workspace Rust lines outside vendor/: $(git ls-files '*.rs' | grep -v '^vendor/' | xargs cat | wc -l)"
