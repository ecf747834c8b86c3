//! What a run records: the failure tally, the optional trace of layer
//! calls, and the named metrics printed at the end.

use crate::calib::{self, HostSpeed};
use crate::stats::median;
use serde::{Serialize, Value};
use std::time::Instant;

/// Operations attempted and failed. A failure is an `Err` answer, a plan
/// that is not `Optimal`, an ingest that is not applied, or an output
/// check that does not hold; the benchmark counts it and carries on.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub first_failures: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }

    /// Count one operation that returned a `Result`, keeping its value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// A reading of this process's CPU time.
///
/// The measured work runs on one thread (see `WORKERS`), so on an idle
/// machine its CPU time is its wall time; time the process spends
/// descheduled while other programs run is left out.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(f64);

impl Stamp {
    pub fn now() -> Self {
        Self(cpu_ms())
    }
}

#[cfg(target_os = "linux")]
fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and clock_gettime writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(not(target_os = "linux"))]
fn cpu_ms() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// CPU milliseconds since `start`, as measured.
pub fn cpu_ms_since(start: Stamp) -> f64 {
    cpu_ms() - start.0
}

/// Milliseconds on the benchmark's clock since `start`: CPU time divided by
/// the host's slowdown at the latest reference sample (see `calib`).
pub fn ms_since(start: Stamp) -> f64 {
    cpu_ms_since(start) / calib::slowdown()
}

/// Run `f` and return its result with its wall time in milliseconds — for
/// the pool-scaling probes, where more than one thread works.
pub fn wall_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Subject of the calls a traced probe makes on the workload's behalf.
pub const PROBE: &str = "probe";

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `iware.fit`.
    pub name: &'static str,
    /// The park (or other subject) the call served.
    pub subject: &'static str,
    /// Duration on the benchmark's clock.
    pub ms: f64,
    /// Duration in CPU time, as measured.
    pub cpu_ms: f64,
}

/// Spans recorded around the public calls into each layer, from outside.
pub struct Trace {
    on: bool,
    spans: Vec<Span>,
    /// Reference samples taken between the recorded calls, if any.
    host: Option<HostSpeed>,
    /// While set, no reference sample is taken.
    hold: bool,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
            host: None,
            hold: false,
        }
    }

    /// Also sample the host's speed between the recorded calls, starting
    /// with one sample now.
    pub fn sampling_host(mut self) -> Self {
        let mut host = HostSpeed::default();
        host.sample();
        self.host = Some(host);
        self
    }

    pub fn host(&self) -> Option<&HostSpeed> {
        self.host.as_ref()
    }

    /// CPU milliseconds spent sampling the host so far.
    pub fn host_spent_ms(&self) -> f64 {
        self.host.as_ref().map_or(0.0, HostSpeed::spent_ms)
    }

    /// Take a host sample now, unless held.
    pub fn sample_host(&mut self) {
        if let (Some(host), false) = (&mut self.host, self.hold) {
            host.sample();
        }
    }

    /// Hold host sampling (while a duration that spans several calls is
    /// being measured), or release it.
    pub fn hold_sampling(&mut self, hold: bool) {
        self.hold = hold;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording its duration under `name`. Spans are recorded
    /// on every run — one clock read per call at a layer boundary, which the
    /// cycles' stage-by-stage latency needs; tracing adds the probes and the
    /// per-layer report.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        subject: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let before = calib::slowdown();
        let start = Stamp::now();
        let out = f();
        let cpu_ms = cpu_ms_since(start);
        // A host sample due now is taken before the duration is scaled, so
        // a call that outlasts the sampling interval is scaled by the mean
        // of the samples on either side of it.
        if let (Some(host), false) = (&mut self.host, self.hold) {
            host.tick();
        }
        let ms = cpu_ms / ((before + calib::slowdown()) / 2.0);
        self.spans.push(Span {
            name,
            subject,
            ms,
            cpu_ms,
        });
        out
    }

    /// Duration of the latest span on the benchmark's clock.
    pub fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.ms)
    }

    /// Position to sum spans from (see [`Trace::ms_since_mark`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total span time recorded since `mark`, on the benchmark's clock.
    pub fn ms_since_mark(&self, mark: usize) -> f64 {
        self.spans[mark..].iter().map(|s| s.ms).sum()
    }

    /// Total span time recorded since `mark`, in CPU time.
    pub fn cpu_ms_since_mark(&self, mark: usize) -> f64 {
        self.spans[mark..].iter().map(|s| s.cpu_ms).sum()
    }

    /// Total time per (name, subject) of the spans since `mark`, in
    /// first-seen order.
    pub fn totals_since(&self, mark: usize) -> Vec<((&'static str, &'static str), f64)> {
        let mut totals: Vec<((&'static str, &'static str), f64)> = Vec::new();
        for s in &self.spans[mark..] {
            match totals
                .iter_mut()
                .find(|(key, _)| *key == (s.name, s.subject))
            {
                Some((_, total)) => *total += s.ms,
                None => totals.push(((s.name, s.subject), s.ms)),
            }
        }
        totals
    }

    /// Durations of every span named `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms)
            .collect()
    }

    /// Median duration of the spans named `name`, leaving out the traced
    /// probes' calls (subject [`PROBE`]) when the workload made the call
    /// itself.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let own: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.subject != PROBE)
            .map(|s| s.ms)
            .collect();
        median(&own).or_else(|| median(&self.samples(name)))
    }

    /// Per (name, subject): call count, median and total milliseconds, in
    /// first-seen order — the per-stage table the log prints.
    pub fn summary(&self) -> Vec<(String, usize, f64, f64)> {
        let mut keys: Vec<(&str, &str)> = Vec::new();
        for s in &self.spans {
            if !keys.contains(&(s.name, s.subject)) {
                keys.push((s.name, s.subject));
            }
        }
        keys.into_iter()
            .map(|(name, subject)| {
                let ms: Vec<f64> = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name && s.subject == subject)
                    .map(|s| s.ms)
                    .collect();
                let label = format!("{name} [{subject}]");
                (label, ms.len(), median(&ms).unwrap_or(0.0), ms.iter().sum())
            })
            .collect()
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add a metric. A value that is not finite is kept as 0 (JSON has no
    /// NaN); the caller counts it as a failed check.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }
}

/// The JSON object the result line carries: `{name: {value, unit}}`.
impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        let entry = |value: f64, unit: &str| {
            Value::Object(vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ])
        };
        Value::Object(
            self.0
                .iter()
                .map(|&(name, value, unit)| (name.to_string(), entry(value, unit)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_without_stopping() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        assert_eq!(t.ok::<u8, &str>(Err("boom"), "plan"), None);
        assert_eq!(t.ok::<u8, &str>(Ok(3), "plan"), Some(3));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.first_failures, vec!["plan: boom".to_string()]);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.5, "s");
        m.push("bad", f64::NAN, "ms");
        m.push("rate", 1.0 / 3.0, "1/s");
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            "{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
             \"bad\":{\"value\":0.0,\"unit\":\"ms\"},\
             \"rate\":{\"value\":0.3333333333333333,\"unit\":\"1/s\"}}"
        );
    }

    #[test]
    fn spans_total_per_stage_since_a_mark() {
        let mut trace = Trace::new(false);
        assert_eq!(trace.span("x", "p", || 7), 7);
        let mark = trace.mark();
        for (name, subject, ms) in [
            ("x", "p", 1.0),
            ("y", "p", 2.0),
            ("x", "p", 3.0),
            ("x", PROBE, 5.0),
        ] {
            trace.spans.push(Span {
                name,
                subject,
                ms,
                cpu_ms: ms,
            });
        }
        assert_eq!(trace.samples("x").len(), 4);
        assert_eq!(
            trace.totals_since(mark),
            vec![(("x", "p"), 4.0), (("y", "p"), 2.0), (("x", PROBE), 5.0)]
        );
        assert_eq!(trace.ms_since_mark(mark), 11.0);
        assert_eq!(trace.summary().len(), 3);
        // The workload's own calls win over a probe's.
        assert_eq!(trace.median_ms("x").map(|m| m >= 1.0), Some(true));
        assert_eq!(trace.median_ms("y"), Some(2.0));
    }
}
