//! Cold-restart smoke with a **real** SIGKILL across OS processes.
//!
//! The parent re-executes this binary as a child (`TSNAP_ROLE=child`)
//! that runs the CF pipeline over a deterministic workload, publishing a
//! durable checkpoint to `TSNAP_PATH` every interval and printing an
//! epoch marker per publish. When the parent has seen enough epochs it
//! SIGKILLs the child — no drain, no atexit, the kernel just reaps it —
//! then restores a fresh store from the newest snapshot, replays only
//! the tail of the (deterministically rebuilt) access log, and asserts
//! the similarity tables come out byte-identical to a fault-free
//! in-process baseline.
//!
//! Run: `cargo run --release -p ckpt --example cold_restart`
//! CI greps the `tsnap:` markers and the final `COLD RESTART OK`.

mod common;

use ckpt::{CheckpointConfig, Coordinator};
use common::{build_topic, counts, launch, now_ms, workload};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tdaccess::ClusterConfig;
use tdstore::{StoreConfig, TdStore};

const ENV_ROLE: &str = "TSNAP_ROLE";
const ENV_PATH: &str = "TSNAP_PATH";
/// Epochs the parent waits for before pulling the trigger: ≥ 2 proves
/// the log advanced (not just a first publish) and leaves a tail.
const KILL_AFTER_EPOCH: u64 = 2;
/// Seed of the deterministic workload.
const WORKLOAD_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Child: run the pipeline, checkpoint every interval, print an epoch
/// marker per publish, and never look back — the parent kills us.
fn child_main(path: PathBuf) -> ! {
    let actions = workload(WORKLOAD_SEED);
    let n = actions.len() as u64;
    let topic = build_topic(&actions, ClusterConfig::default());
    let coord = Coordinator::open(
        &path,
        CheckpointConfig {
            drain_timeout: Duration::from_secs(30),
            retain: 2,
            ..Default::default()
        },
    )
    .expect("open checkpoint log");
    let life = launch(
        &topic,
        "cold",
        TdStore::new(StoreConfig::default()),
        Vec::new(),
    );
    loop {
        std::thread::sleep(Duration::from_millis(150));
        if let Ok(meta) = coord.checkpoint(&life.handle, &life.store, &life.offsets, now_ms()) {
            // The parent tails this line; flush-on-newline is enough.
            println!("tsnap-child: checkpoint epoch {}", meta.epoch);
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
            std::env::temp_dir().join(format!("tsnap-cold-restart-{}.log", std::process::id()))
        });
    if std::env::var(ENV_ROLE).as_deref() == Ok("child") {
        child_main(path);
    }
    let _ = std::fs::remove_file(&path);

    let actions = workload(WORKLOAD_SEED);
    let n = actions.len() as u64;

    // Child life: same binary, checkpointing against the shared path.
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

    // Tail the child's markers until the log has advanced far
    // enough, then SIGKILL mid-run.
    let stdout = child.stdout.take().expect("child stdout");
    let mut last_epoch = 0u64;
    let mut child_done = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read child marker");
        if let Some(e) = line.strip_prefix("tsnap-child: checkpoint epoch ") {
            last_epoch = e.trim().parse().expect("epoch marker");
            if last_epoch >= KILL_AFTER_EPOCH {
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
        "child finished the whole workload before epoch {KILL_AFTER_EPOCH}; \
         grow the workload so the kill lands mid-run"
    );
    println!("tsnap: killed child at epoch {last_epoch} (SIGKILL)");

    // Fault-free baseline, same deterministic workload.
    let baseline = launch(
        &build_topic(&actions, ClusterConfig::default()),
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

    // Restore: the snapshot file is the only survivor of the kill. Its
    // newest epoch may be one behind the last marker (the child can die
    // mid-publish); torn tails must fall back, never corrupt.
    let coord = Coordinator::open(&path, CheckpointConfig::default()).expect("reopen after kill");
    let store = TdStore::new(StoreConfig::default());
    let restored = coord
        .restore_into(&store)
        .expect("restore")
        .expect("child published at least one loadable snapshot");
    let skipped: u64 = restored.start_offsets.iter().map(|&(_, off)| off).sum();
    assert!(
        skipped > 0,
        "restore must resume from the snapshot offsets, not replay from zero"
    );
    println!(
        "tsnap: restored epoch {}, skipping {skipped} of {n} records",
        restored.meta.epoch
    );

    // Second life over the tail only.
    let second = launch(
        &build_topic(&actions, ClusterConfig::default()),
        "cold-2",
        store,
        restored.start_offsets.clone(),
    );
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
    println!("tsnap: tables byte-identical to fault-free baseline");
    let _ = std::fs::remove_file(&path);
    println!("COLD RESTART OK");
}
