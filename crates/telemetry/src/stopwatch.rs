//! The wall-clock span timer behind every run's `wall_ms`.

use std::time::Instant;

/// A wall-clock span timer. A campaign starts one and reads it into
/// every [`crate::RunRecord`] it builds; multi-campaign tools keep one
/// for the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Milliseconds elapsed since the start.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let watch = Stopwatch::start();
        let first = watch.elapsed_ms();
        let second = watch.elapsed_ms();
        assert!(second >= first);
    }
}
