//! In-memory span recorder for the traced run. Spans are taken by the
//! benchmark around its calls into each layer's public function (or, for
//! the service, from the timestamps a `JobOutcome` carries), kept in a
//! preallocated buffer, and written at exit as Chrome-trace `"ph": "X"`
//! events in the event shape `gpu_sim::timeline` emits for modelled
//! kernels, so host and modelled traces open side by side in Perfetto.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans kept per run; later spans are counted in `dropped` only.
pub const SPAN_CAP: usize = 60_000;

/// Which operations of a run record spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    Off,
    /// Every second operation, so traced and untraced operations share
    /// the run's host conditions and their difference is the overhead.
    Alternate,
    All,
}

impl TraceMode {
    pub fn traced(self, op: u64) -> bool {
        match self {
            TraceMode::Off => false,
            TraceMode::Alternate => op % 2 == 1,
            TraceMode::All => true,
        }
    }
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    /// The operation (request) the span belongs to; spans of one
    /// operation share it.
    pub op: u64,
    /// Trace row: 0 load generator, 1 service worker.
    pub tid: u32,
    pub start: Duration,
    pub dur: Duration,
    /// Useful flops the span performed (0 when not a compute span).
    pub flops: f64,
}

/// A span that has been opened but not closed.
#[must_use]
pub struct Open {
    pub id: u32,
    name: &'static str,
    parent: u32,
    op: u64,
    tid: u32,
    start: Instant,
}

pub struct Tracer {
    t0: Instant,
    /// Recording switch: spans opened while off get id 0 and are never
    /// stored, so the untraced path does no span work beyond the branch.
    pub enabled: bool,
    next_id: u32,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            enabled: false,
            next_id: 1,
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
        }
    }

    pub fn open(&mut self, name: &'static str, tid: u32, op: u64, parent: u32) -> Open {
        let id = if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            id
        } else {
            0
        };
        Open {
            id,
            name,
            parent,
            op,
            tid,
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, open: Open, flops: f64) {
        let end = Instant::now();
        self.push_interval(&open, open.start, end, flops);
    }

    /// Record an interval measured elsewhere (service outcome timestamps).
    #[allow(clippy::too_many_arguments)]
    pub fn interval(
        &mut self,
        name: &'static str,
        tid: u32,
        op: u64,
        parent: u32,
        start: Instant,
        end: Instant,
        flops: f64,
    ) -> u32 {
        let open = self.open(name, tid, op, parent);
        self.push_interval(&open, start, end, flops);
        open.id
    }

    fn push_interval(&mut self, open: &Open, start: Instant, end: Instant, flops: f64) {
        if open.id == 0 {
            return;
        }
        if self.spans.len() == SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            op: open.op,
            tid: open.tid,
            start: start.saturating_duration_since(self.t0),
            dur: end.saturating_duration_since(start),
            flops,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time in ms of every span called `name`: its duration minus the
    /// time its child spans cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child: HashMap<u32, Duration> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child.entry(s.parent).or_default() += s.dur;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let covered = child.get(&s.id).copied().unwrap_or_default();
                s.dur.saturating_sub(covered).as_secs_f64() * 1e3
            })
            .collect()
    }

    /// Chrome-trace JSON: an array of complete (`"ph": "X"`) events with
    /// microsecond `ts`/`dur`, one `tid` per trace row.
    pub fn chrome_json(&self, pid: usize) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                concat!(
                    "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", ",
                    "\"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}, ",
                    "\"args\": {{\"op\": {}, \"id\": {}, \"parent\": {}, \"flops\": {:.0}}}}}"
                ),
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                pid,
                s.tid,
                s.op,
                s.id,
                s.parent,
                s.flops,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let o = t.open("a", 0, 1, 0);
        assert_eq!(o.id, 0);
        t.close(o, 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        t.enabled = true;
        let ms = Duration::from_millis;
        let root = t.interval("op", 0, 1, 0, t0, t0 + ms(10), 0.0);
        t.interval("child", 0, 1, root, t0 + ms(1), t0 + ms(4), 0.0);
        t.interval("child", 0, 1, root, t0 + ms(5), t0 + ms(7), 0.0);
        let own = t.self_ms("op");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 5.0).abs() < 1e-9, "{own:?}");
        assert_eq!(t.durations_ms("child").len(), 2);
    }

    #[test]
    fn chrome_events_are_complete_events() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        t.enabled = true;
        t.interval(
            "caqr_cpu",
            0,
            3,
            0,
            t0,
            t0 + Duration::from_micros(250),
            1e6,
        );
        let json = t.chrome_json(0);
        assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
        for key in [
            "\"ph\": \"X\"",
            "\"ts\": 0.000",
            "\"dur\": 250.000",
            "\"tid\": 0",
            "\"op\": 3",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }
}
