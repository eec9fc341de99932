//! The `wallclock` fixture with each read justified by an `#[expect]`,
//! plus methods named `now`/`elapsed`/`sleep` on a virtual clock, which
//! the ban must not touch: clippy must accept it.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::{Duration, Instant, SystemTime};

/// An offline stopwatch whose reading never drives a result.
pub fn timed_pass() -> Duration {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: offline stopwatch, never drives results"
    )]
    let t0 = Instant::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: pacing only")]
    std::thread::sleep(Duration::from_millis(1));
    #[expect(clippy::disallowed_methods, reason = "fixture: stopwatch readout")]
    let spent = t0.elapsed();
    spent
}

/// A calendar stamp for a log line.
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: log decoration, never drives results"
)]
pub fn age() -> Duration {
    SystemTime::now().elapsed().unwrap_or_default()
}

/// A tick source with the wall clock's method names.
pub struct VirtualClock(pub u64);

impl VirtualClock {
    /// Current tick.
    pub fn now(&self) -> u64 {
        self.0
    }
    /// Ticks since `start`.
    pub fn elapsed(&self, start: u64) -> u64 {
        self.0.saturating_sub(start)
    }
    /// Advance by `ticks`.
    pub fn sleep(&mut self, ticks: u64) {
        self.0 = self.0.saturating_add(ticks);
    }
}

/// Virtual time is not wall-clock time.
pub fn virtual_pass(clock: &mut VirtualClock) -> u64 {
    let t0 = clock.now();
    clock.sleep(3);
    clock.elapsed(t0)
}
