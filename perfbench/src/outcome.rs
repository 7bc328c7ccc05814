//! What one run produces: op counts, failures and named metrics.

use crate::span::Tracer;
use crate::stats::median;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Measurements the value summarizes (0: the layer did not run).
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Runs one op and counts it. An `Err` or a panic counts as failed;
    /// spans the op left open are closed.
    pub fn op(&mut self, tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> Result<(), String>) {
        self.attempted += 1;
        tr.set_op(self.attempted);
        let depth = tr.depth();
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut *tr)));
        tr.close_to(depth);
        match result {
            Ok(Ok(())) => {}
            Ok(Err(why)) => self.fail(why),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_owned());
                self.fail(format!("panic: {msg}"));
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times and returns the last state with the
/// median time in seconds.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS is positive"), median(&times))
}

/// `Err(what)` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn err_and_panic_count_as_failed() {
        let mut out = Outcome::default();
        let mut tr = Tracer::new(true);
        out.op(&mut tr, |_| Ok(()));
        out.op(&mut tr, |_| Err("wrong output".to_owned()));
        out.op(&mut tr, |tr| {
            let _open = tr.enter("op");
            panic!("boom")
        });
        assert_eq!((out.attempted, out.failed), (3, 2));
        assert_eq!(out.failures[1], "panic: boom");
        assert_eq!(tr.depth(), 0);
        assert!((out.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn setup_reports_the_median() {
        let mut n = 0;
        let (last, secs) = timed_setup(|| {
            n += 1;
            n
        });
        assert_eq!(last, SETUP_REPS);
        assert!(secs >= 0.0);
    }
}
