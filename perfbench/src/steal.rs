//! Steal-adjusted wall time for long operations. On a shared virtual
//! host the wall clock also counts time the hypervisor gave a busy vCPU
//! to another guest (steal), and that share moves from minute to minute.
//! An operation that spans many hypervisor time slices (a Fig. 6
//! regeneration, ~0.4 s) is stretched in proportion to it, while the
//! median of short operations (a ~2 ms engine call, a ~0.2 ms daemon
//! round trip) mostly escapes it, so only the long one is adjusted.
//!
//! A background thread samples the kernel's CPU counters; an operation's
//! wall time is scaled by the share of busy CPU time that was *not*
//! stolen over the sampled interval around it. Parallelism, queueing and
//! waiting stay in the figure; only the hypervisor's share comes out.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the counters are read. `/proc/stat` counts in 10 ms ticks,
/// so an interval holds a few dozen ticks on a small host.
const INTERVAL: Duration = Duration::from_millis(200);

/// One reading of the system-wide CPU counters (clock ticks).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mark {
    at: Instant,
    /// Ticks a runnable vCPU waited for the hypervisor.
    steal: u64,
    /// Ticks not idle: user, nice, system, irq, softirq and steal.
    busy: u64,
}

fn read_mark() -> Option<Mark> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let field = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal ...
    Some(Mark {
        at: Instant::now(),
        steal: field(7),
        busy: field(0) + field(1) + field(2) + field(5) + field(6) + field(7),
    })
}

/// Samples the counters until finished.
pub struct StealMeter {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<Vec<Mark>>,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut marks = Vec::new();
            loop {
                marks.extend(read_mark());
                if !matches!(
                    stopped.recv_timeout(INTERVAL),
                    Err(mpsc::RecvTimeoutError::Timeout)
                ) {
                    marks.extend(read_mark());
                    return marks;
                }
            }
        });
        StealMeter { stop, thread }
    }

    /// Stops the sampler and returns what it saw.
    pub fn finish(self) -> StealLog {
        let _ = self.stop.send(());
        StealLog {
            marks: self.thread.join().unwrap_or_default(),
        }
    }
}

/// The sampled counters of one timed window.
#[derive(Debug, Default)]
pub struct StealLog {
    marks: Vec<Mark>,
}

impl StealLog {
    /// Share of busy CPU time stolen over the smallest sampled interval
    /// that covers `[start, end]`; 0 where nothing was sampled.
    fn share(&self, start: Instant, end: Instant) -> f64 {
        let before = self.marks.iter().rev().find(|m| m.at <= start);
        let after = self.marks.iter().find(|m| m.at >= end);
        let (Some(a), Some(b)) = (before.or(self.marks.first()), after.or(self.marks.last()))
        else {
            return 0.0;
        };
        let busy = b.busy.saturating_sub(a.busy);
        if busy == 0 {
            return 0.0;
        }
        (b.steal.saturating_sub(a.steal) as f64 / busy as f64).min(1.0)
    }

    /// `wall` seconds of an operation that began at `start`, less the
    /// stolen share of the interval around it.
    pub fn adjust(&self, start: Instant, wall: f64) -> f64 {
        wall * (1.0 - self.share(start, start + Duration::from_secs_f64(wall)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(origin: Instant, ms: u64, steal: u64, busy: u64) -> Mark {
        Mark {
            at: origin + Duration::from_millis(ms),
            steal,
            busy,
        }
    }

    #[test]
    fn share_uses_the_interval_around_the_operation() {
        let t = Instant::now();
        let log = StealLog {
            marks: vec![
                mark(t, 0, 0, 0),
                mark(t, 200, 10, 40),
                mark(t, 400, 10, 80),
                mark(t, 600, 30, 120),
            ],
        };
        let at = |ms| t + Duration::from_millis(ms);
        assert_eq!(log.share(at(250), at(300)), 0.0);
        assert_eq!(log.share(at(50), at(100)), 0.25);
        assert_eq!(log.share(at(450), at(500)), 0.5);
        // Spanning two intervals: 20 of 80 busy ticks stolen.
        assert_eq!(log.share(at(300), at(500)), 0.25);
        assert_eq!(log.adjust(at(450), 0.1), 0.05);
        assert_eq!(StealLog::default().share(at(0), at(1)), 0.0);
    }

    #[test]
    fn meter_samples_the_host() {
        let meter = StealMeter::start();
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(50));
        let log = meter.finish();
        assert!(log.marks.len() >= 2);
        let share = log.share(start, Instant::now());
        assert!((0.0..=1.0).contains(&share));
    }
}
