//! Periodic rendering of one or more registries.
//!
//! A [`MetricsReporter`] collects registry handles from every subsystem
//! (topology, stores, serving layer) and renders them as one text
//! exposition — on demand via [`MetricsReporter::render`], or periodically
//! on a background thread via [`MetricsReporter::spawn`] (examples print to
//! stderr; a real deployment would serve the same text over HTTP).

use crate::registry::{render_registries, Registry};
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Renders a set of registries, immediately or on an interval.
#[derive(Clone, Debug, Default)]
pub struct MetricsReporter {
    registries: Vec<Registry>,
}

impl MetricsReporter {
    /// An empty reporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a registry (the handle is cloned; later metrics still show).
    pub fn add(&mut self, registry: &Registry) -> &mut Self {
        self.registries.push(registry.clone());
        self
    }

    /// Renders all registries as one exposition.
    pub fn render(&self) -> String {
        render_registries(&self.registries)
    }

    /// Spawns a background thread invoking `sink` with a fresh exposition
    /// every `interval` until the returned handle is stopped or dropped.
    /// Fails when the OS refuses the thread.
    pub fn spawn(
        self,
        interval: Duration,
        mut sink: impl FnMut(&str) + Send + 'static,
    ) -> io::Result<ReporterHandle> {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("obs-reporter".into())
            .spawn(move || {
                let (lock, cv) = &*stop2;
                let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        // Render outside the lock so a stop request never
                        // waits on a slow sink.
                        drop(stopped);
                        sink(&self.render());
                        stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    }
                }
            })?;
        Ok(ReporterHandle {
            stop,
            thread: Some(thread),
        })
    }
}

/// Stops the background reporter thread when stopped or dropped.
pub struct ReporterHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl ReporterHandle {
    /// Stops and joins the reporter thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReporterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn render_merges_registries() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("alpha_total", &[], "a").add(1);
        b.counter("beta_total", &[], "b").add(2);
        let mut rep = MetricsReporter::new();
        rep.add(&a).add(&b);
        let text = rep.render();
        assert!(text.contains("alpha_total 1"), "{text}");
        assert!(text.contains("beta_total 2"), "{text}");
    }

    #[test]
    fn shared_family_across_registries_renders_one_type_line() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("ops_total", &[("src", "a")], "ops").inc();
        b.counter("ops_total", &[("src", "b")], "ops").inc();
        let mut rep = MetricsReporter::new();
        rep.add(&a).add(&b);
        let text = rep.render();
        assert_eq!(
            text.matches("# TYPE ops_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("ops_total{src=\"a\"} 1"), "{text}");
        assert!(text.contains("ops_total{src=\"b\"} 1"), "{text}");
    }

    #[test]
    fn spawned_reporter_ticks_and_stops() {
        let reg = Registry::new();
        reg.counter("ticks_total", &[], "t").inc();
        let mut rep = MetricsReporter::new();
        rep.add(&reg);
        let renders = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&renders);
        let handle = rep
            .spawn(Duration::from_millis(5), move |text| {
                assert!(text.contains("ticks_total"));
                r2.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while renders.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
        assert!(renders.load(Ordering::SeqCst) >= 2, "reporter must tick");
    }
}
