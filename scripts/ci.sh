#!/usr/bin/env bash
# Local CI: everything that must be green before a change lands.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# Panic-site stage: no `.unwrap()` or `.expect(` in the non-test code
# (everything before a file's `#[cfg(test)]`, doc comments aside) of the
# crates that bytes from a disk or a socket reach. `tdstore` walks the
# record headers of its checkpoint log, the only durable copy of the
# state, at every open and decodes its records at every restore, a
# cluster worker reads every frame the supervisor relays, `tdaccess`,
# `ckpt` and `wire` read the log segments, the checkpoints and the
# frames, `core` reads every status-data value a restore brings back,
# `obs` rebuilds latency histograms from cluster and serve frames, and
# `serve` reads client sockets, so a bad byte, a failed disk call or a
# thread the OS refuses must come back as an error.
for crate in tdstore cluster tdaccess ckpt wire core obs serve; do
    echo "==> no unwrap/expect in $crate non-test code"
    panic_sites="$(git ls-files "crates/$crate/src/*.rs" | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /\.unwrap\(\)|\.expect\(/ && !/^ *\/\/[\/!]/ { print f ":" FNR ": " $0 }' "$f"
    done)"
    if [[ -n "$panic_sites" ]]; then
        echo "PANIC-SITE FAILURE: unwrap/expect in $crate non-test code:" >&2
        echo "$panic_sites" >&2
        exit 1
    fi
done

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
# The history bolt edits a user's history in place: seven runs of the
# example read an execute p99 of 5.9-11.5 us over its 1,567 executes. The
# ceiling is 500 us, so a history rewritten whole per action, or a
# blocking call per execute, trips it (a 1-ms sleep per execute reads
# 1.18 ms).
uh_p99="$(grep '^tstorm_exec_latency_seconds{component="user_history",quantile="0.99"}' <<<"$expo" | awk '{print $2}')"
if ! awk -v p="$uh_p99" 'BEGIN { exit !(p != "" && p + 0 > 0 && p + 0 <= 0.0005) }'; then
    echo "OBSERVABILITY FAILURE: user_history execute p99 ${uh_p99:-missing} s (> 500 us)" >&2
    exit 1
fi
echo "    exposition OK (pipeline latency samples: $count, unchanged store ops: $unchanged, user_history p99 $uh_p99 s)"

# Fig. 7 stage: the CTR topology built from the checked-in XML reads an
# action topic through the replayable spout. The example asserts that
# every logged action committed and that the male cell's CTR lies above
# the female cell's, and exits non-zero when either fails.
echo "==> Fig. 7 XML topology smoke (xml_topology)"
if ! xml_out="$(cargo run --release -p tencentrec --example xml_topology 2>&1)"; then
    echo "XML TOPOLOGY FAILURE:" >&2
    echo "$xml_out" >&2
    exit 1
fi
echo "    $(grep '^committed all' <<<"$xml_out")"

# Benchmark stage: the manifest must agree with the compiled-in metric
# tables, a short traced ingest_broad run — the whole CF pipeline
# against the in-memory reference — must come out correct, an untraced
# one must stay under a peak-RSS ceiling and above a throughput floor, a
# short untraced fresh_hot run must stay fresh, a short cluster_edge run
# — the tuple and acker wire codecs between real processes — must verify
# and stay fast, and a short serve_mixed run must verify and keep its
# tail.
echo "==> tbench (--validate, traced ingest_broad smoke, ingest_broad peak RSS and throughput, fresh_hot freshness, cluster_edge, serve_mixed)"
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
# Packed pair stream: the history bolt emits one pair block per action
# and cf_pair task, not one tuple per pair. At this size the smoke reads
# 1.41 pair-stream tuples per action packed (25,444 for 18,000 actions),
# 4.08 with a tuple per pair. The ceiling sits between the two, so a
# stream that unpacks again trips it.
pair_tuples="$(tbench_metric "$tbench_out" core.cf_pair.tuples_in)"
actions_in="$(tbench_metric "$tbench_out" core.pretreatment.tuples_out)"
if ! awk -v p="$pair_tuples" -v a="$actions_in" 'BEGIN { exit !(a > 0 && p / a <= 2.5) }'; then
    echo "TBENCH FAILURE: $pair_tuples pair-stream tuples for $actions_in actions (> 2.5 per action)" >&2
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
# Throughput: the whole CF pipeline must keep its drain rate. On a shared
# 2-core box, 18 2-s untraced seed-1 runs read 29.7K-66.4K actions/s,
# drifting with the box. The floor sits 20% under the slowest, so noise
# alone does not trip it, while a cf_pair that takes twice as long per
# run (20.4K-23.3K in 6 runs alternated with the above) does. One retry:
# a 2-s run on a shared box can dip on its own, a real regression fails
# both runs.
ingest_ops="$(tbench_metric "$rss_out" ops_per_s)"
if ! awk -v o="$ingest_ops" 'BEGIN { exit !(o >= 23700) }'; then
    echo "    ingest_broad $ingest_ops actions/s under the floor once; retrying to rule out machine noise"
    retry_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
        --workload ingest_broad --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    ingest_ops="$(tbench_metric "$retry_out" ops_per_s)"
    if ! grep -q '"correct": true' <<<"$retry_out" \
        || ! awk -v o="$ingest_ops" 'BEGIN { exit !(o >= 23700) }'; then
        echo "TBENCH FAILURE: ingest_broad $ingest_ops actions/s (< 23.7K/s)" >&2
        exit 1
    fi
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
# read straight into them, no owned tuple per record, and the runtime
# pays its bookkeeping per message, not per tuple: the acker reads the
# clock and settles its gauge and latency histogram once per message, a
# bolt folds its execute counters once per run, and an egress pump
# drains its whole queue into a few large frames. On a shared 2-core
# box, 36 2-s untraced runs read 1.52-2.69M tuples/s that way, drifting
# by a third within minutes (12 of them alternated with the per-tuple
# bookkeeping of the parent commit, which read 1.29-1.75M). The floor
# sits 20% under the slowest run, so noise no longer trips it, while a
# per-tuple flatten or regroup on either side (0.70-1.25M when it was
# last measured) still does.
edge_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
    --workload cluster_edge --seed 1 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$edge_out"; then
    echo "TBENCH FAILURE: cluster_edge did not verify:" >&2
    echo "$edge_out" >&2
    exit 1
fi
edge_ops="$(tbench_metric "$edge_out" ops_per_s)"
if ! awk -v o="$edge_ops" 'BEGIN { exit !(o >= 1250000) }'; then
    echo "TBENCH FAILURE: cluster_edge $edge_ops tuples/s (< 1.25M/s)" >&2
    exit 1
fi
# Serving edge: a cold or sparse user's page is filled from the group's
# hot list, not by ranking the catalog. On a 2-core box, 2-s untraced
# runs read a p95 of 439-584 us that way (11 runs: seeds 101-110, median
# 524 us, and this stage's seed 1 at 584 us), and 836-1055 us with a full
# ranking per backfilled page (seeds 101-110 alternated with the former,
# median 968 us). The ceiling sits ~28% above the slowest hot-list run
# and below every full-ranking run, so a backfill that ranks the catalog
# again trips it.
serve_out="$(cargo run --release --offline --quiet --manifest-path crates/tbench/Cargo.toml -- \
    --workload serve_mixed --seed 1 --seconds 2 --trace 0 | tail -n 1)"
if ! grep -q '"correct": true' <<<"$serve_out"; then
    echo "TBENCH FAILURE: serve_mixed did not verify:" >&2
    echo "$serve_out" >&2
    exit 1
fi
serve_p95="$(tbench_metric "$serve_out" latency_p95_us)"
if ! awk -v p="$serve_p95" 'BEGIN { exit !(p > 0 && p <= 750) }'; then
    echo "TBENCH FAILURE: serve_mixed p95 $serve_p95 us (> 750 us)" >&2
    exit 1
fi
# The reader's query latency under ingest is reported, not gated: a 2-s
# run is too noisy for a ceiling (the allocation guard in
# crates/core/tests/recommend_allocs.rs is the deterministic check).
ingest_p50="$(tbench_metric "$rss_out" latency_p50_us)"
echo "    tbench OK ($store_bytes bytes in $store_keys keys, $pair_tuples pair-stream tuples for $actions_in actions, peak RSS $peak_rss MiB, ingest_broad $ingest_ops actions/s, query p50 $ingest_p50 us, fresh_hot p50 $fresh_p50 us, cluster_edge $edge_ops tuples/s, serve_mixed p95 $serve_p95 us)"

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
# patches.
echo "==> time-to-recover + delta-ratio gate (smoke)"
cargo run --release -p bench --bin recovery_bench -- --smoke --check

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
