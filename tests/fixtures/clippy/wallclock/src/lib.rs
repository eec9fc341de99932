//! Wall-clock reads and real sleeps in a determinism crate root: clippy
//! must reject all five with `clippy::disallowed_methods`.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::{Duration, Instant, SystemTime};

/// `Instant::now`, `thread::sleep` and `Instant::elapsed`: the result
/// depends on the machine, not the data.
pub fn timed_pass() -> Duration {
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(1));
    t0.elapsed()
}

/// `SystemTime::now` and `SystemTime::elapsed`.
pub fn age() -> Duration {
    SystemTime::now().elapsed().unwrap_or_default()
}
