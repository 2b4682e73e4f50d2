//! Incremental-restart smoke: SIGKILL mid-chain, restore through the
//! base + delta chain, then compact the access log below the restored
//! floor — the end-to-end contract of incremental checkpoints.
//!
//! The parent re-executes this binary as a child (`TSNAP_ROLE=child`)
//! that runs the CF pipeline, publishing a full base and then a chain of
//! delta checkpoints (`rebase_every` is set high and `max_delta_ratio`
//! disabled, so every epoch after the first rides the chain). Once the
//! parent has seen at least two delta markers it SIGKILLs the child —
//! the kernel reaps it mid-chain, possibly mid-publish. The parent then:
//!
//! 1. restores a fresh store, which must walk full base + delta chain;
//! 2. scrapes `tsnap_restored_epoch` from the metrics registry;
//! 3. commits the restored offset vector as a consumer-group floor and
//!    truncates the (deterministically rebuilt) access log below it,
//!    asserting `tdaccess_truncated_segments` counts the removals;
//! 4. replays only the tail of the *compacted* log and asserts the
//!    similarity tables come out byte-identical to a fault-free
//!    baseline — compaction never eats an unreplayed record.
//!
//! Run: `cargo run --release -p ckpt --example incremental_restart`
//! CI greps the `tsnap:`/`tdaccess:` markers and `INCREMENTAL RESTART OK`.

mod common;

use ckpt::{CheckpointConfig, Coordinator};
use common::{build_topic, counts, launch, now_ms, workload};
use obs::Registry;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tdaccess::{ClusterConfig, SegmentConfig};
use tdstore::{SnapshotKind, StoreConfig, TdStore};

const ENV_ROLE: &str = "TSNAP_ROLE";
const ENV_PATH: &str = "TSNAP_PATH";
/// Delta publishes the parent waits for before pulling the trigger:
/// ≥ 2 proves restore walks a chain, not just full + one patch.
const KILL_AFTER_DELTAS: u64 = 2;
/// Seed of the deterministic workload.
const WORKLOAD_SEED: u64 = 0x0131_98A2_E037_0734;

/// Small segments so the kill point leaves whole segments below the
/// restored offset floor — compaction must have something to remove.
fn topic_config() -> ClusterConfig {
    ClusterConfig {
        segment: SegmentConfig {
            max_messages: 256,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn ckpt_config() -> CheckpointConfig {
    CheckpointConfig {
        drain_timeout: Duration::from_secs(30),
        retain: 3,
        // Force a long chain: never rebase on schedule, and never fold a
        // fat delta back into a full blob — the example *wants* deltas.
        rebase_every: 64,
        max_delta_ratio: f64::MAX,
    }
}

/// Sums every `tdaccess_truncated_segments` series in a rendered scrape.
fn scraped_truncated_segments(rendered: &str) -> u64 {
    rendered
        .lines()
        .filter(|l| l.starts_with("tdaccess_truncated_segments{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// Child: run the pipeline, checkpoint every interval, print an epoch
/// marker (with its chain kind) per publish — the parent kills us.
fn child_main(path: PathBuf) -> ! {
    let actions = workload(WORKLOAD_SEED);
    let n = actions.len() as u64;
    let topic = build_topic(&actions, topic_config());
    let coord = Coordinator::open(&path, ckpt_config()).expect("open checkpoint log");
    let life = launch(
        &topic,
        "inc",
        TdStore::new(StoreConfig::default()),
        Vec::new(),
    );
    loop {
        std::thread::sleep(Duration::from_millis(150));
        if let Ok(meta) = coord.checkpoint(&life.handle, &life.store, &life.offsets, now_ms()) {
            let kind = match coord.snapshots().load_record(meta.epoch).map(|r| r.kind) {
                Some(SnapshotKind::Delta { base_epoch }) => format!("delta base {base_epoch}"),
                _ => "full".to_string(),
            };
            // The parent tails this line; flush-on-newline is enough.
            println!("tsnap-child: checkpoint epoch {} ({kind})", meta.epoch);
        }
        if life.progress.committed() >= n {
            println!("tsnap-child: done");
            std::process::exit(0);
        }
    }
}

fn main() {
    let path = std::env::var(ENV_PATH)
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("tsnap-incremental-{}.log", std::process::id()))
        });
    if std::env::var(ENV_ROLE).as_deref() == Ok("child") {
        child_main(path);
    }
    let _ = std::fs::remove_file(&path);

    let actions = workload(WORKLOAD_SEED);
    let n = actions.len() as u64;

    // Child life: same binary, checkpointing a delta chain to the shared
    // path.
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .env(ENV_ROLE, "child")
        .env(ENV_PATH, &path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn child");
    println!(
        "tsnap: child {} checkpointing at {}",
        child.id(),
        path.display()
    );

    // Tail the child's markers until the chain is long enough, then
    // SIGKILL mid-chain (possibly mid-publish: a torn delta tail).
    let stdout = child.stdout.take().expect("child stdout");
    let mut deltas_seen = 0u64;
    let mut last_epoch = 0u64;
    let mut child_done = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child marker");
        if let Some(rest) = line.strip_prefix("tsnap-child: checkpoint epoch ") {
            let mut parts = rest.splitn(2, ' ');
            last_epoch = parts.next().unwrap().trim().parse().expect("epoch marker");
            if rest.contains("(delta") {
                deltas_seen += 1;
            }
            if deltas_seen >= KILL_AFTER_DELTAS {
                break;
            }
        } else if line == "tsnap-child: done" {
            child_done = true;
            break;
        }
    }
    child.kill().expect("SIGKILL child"); // SIGKILL on unix: no cleanup runs
    child.wait().expect("reap child");
    assert!(
        !child_done,
        "child finished the whole workload before {KILL_AFTER_DELTAS} deltas; \
         grow the workload so the kill lands mid-chain"
    );
    println!("tsnap: killed child mid-chain at epoch {last_epoch} (SIGKILL)");

    // Fault-free baseline, same deterministic workload.
    let baseline = launch(
        &build_topic(&actions, topic_config()),
        "base",
        TdStore::new(StoreConfig::default()),
        Vec::new(),
    );
    let deadline = Instant::now() + Duration::from_secs(300);
    while baseline.progress.committed() < n {
        assert!(Instant::now() < deadline, "baseline stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    baseline.handle.shutdown(Duration::from_secs(10));
    let base_ic = counts(&baseline.store, b"ic:");
    let base_pc = counts(&baseline.store, b"pc:");

    // Restore: must walk full base + delta chain (every epoch after 1 is
    // a delta by construction). A torn delta tail from the kill must fall
    // back to the previous epoch, never corrupt.
    let coord = Coordinator::open(&path, ckpt_config()).expect("reopen after kill");
    let store = TdStore::new(StoreConfig::default());
    let restored = coord
        .restore_into(&store)
        .expect("restore")
        .expect("child published at least one loadable snapshot");
    assert!(
        restored.meta.epoch > KILL_AFTER_DELTAS,
        "the log should have advanced through the delta chain"
    );
    assert!(
        matches!(
            coord
                .snapshots()
                .load_record(restored.meta.epoch)
                .map(|r| r.kind),
            Some(SnapshotKind::Delta { .. })
        ),
        "restored epoch should be a delta patch, proving the chain walk"
    );
    let skipped: u64 = restored.start_offsets.iter().map(|&(_, off)| off).sum();
    assert!(
        skipped > 0,
        "restore must resume from the snapshot offsets, not replay from zero"
    );
    println!(
        "tsnap: restored epoch {} via base+delta chain, skipping {skipped} of {n} records",
        restored.meta.epoch
    );

    // Scrape the restore gauge the way an operator's dashboard would.
    let registry = Registry::new();
    coord.register_metrics(&registry);
    let scraped = registry.gauge_value("tsnap_restored_epoch", &[]);
    assert_eq!(
        scraped,
        Some(restored.meta.epoch as f64),
        "tsnap_restored_epoch must report the restored epoch"
    );
    println!(
        "tsnap: scrape tsnap_restored_epoch = {}",
        restored.meta.epoch
    );

    // Compaction: the restored offset vector is a proven replay floor —
    // commit it for this group, truncate everything below it, and prove
    // via the scrape that whole segments actually went away.
    let access = build_topic(&actions, topic_config());
    access
        .commit_group_offsets("actions", "inc", &restored.start_offsets)
        .expect("commit restored floor");
    let removed = access
        .truncate_topic_before("actions", &restored.start_offsets)
        .expect("truncate below restored floor");
    let truncated = scraped_truncated_segments(&access.registry().render());
    assert!(removed > 0, "kill point should leave removable segments");
    assert_eq!(truncated, removed as u64, "scrape must count every removal");
    println!("tdaccess: compaction truncated {removed} segments below the restored floor");

    // Second life over the tail of the *compacted* log: truncation below
    // the committed floor must not cost a single unreplayed record.
    let second = launch(&access, "inc-2", store, restored.start_offsets.clone());
    let deadline = Instant::now() + Duration::from_secs(300);
    while second.progress.committed() < n - skipped {
        assert!(
            Instant::now() < deadline,
            "tail replay stalled at {}/{}",
            second.progress.committed(),
            n - skipped
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    second.handle.shutdown(Duration::from_secs(10));

    assert_eq!(
        counts(&second.store, b"ic:"),
        base_ic,
        "itemCounts diverged"
    );
    assert_eq!(
        counts(&second.store, b"pc:"),
        base_pc,
        "pairCounts diverged"
    );
    println!("tsnap: tables byte-identical to fault-free baseline after compaction");
    let _ = std::fs::remove_file(&path);
    println!("INCREMENTAL RESTART OK");
}
