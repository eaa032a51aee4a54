//! `service_burst`: bursts of jobs, all due at once, dropped into a
//! default-configured `Service` (queue capacity raised to the burst size).
//! Each burst is an open loop whose arrivals all fall at its start, so a
//! submit that stalls is charged to every job submitted after it. Every
//! outcome is checked bitwise against a standalone `caqr_cpu` reference
//! and the ledger must reconcile.

use crate::gen::{self, Job, JobGen, Rng, SERVICE_SHAPES, TENANTS};
use crate::setup::{digest, DIGEST_SEED};
use crate::stats;
use crate::trace::{TraceMode, Tracer};
use crate::{arena_misses_since, same_bits, Measured, Sample};
use caqr::{JobSpec, Priority, Service, ServiceConfig, ServiceLedger, Ticket};
use dense::Matrix;
use std::time::{Duration, Instant};

/// Jobs per burst. Deep enough that every shape class fills groups of
/// `max_batch` (8) jobs; small enough that the queued inputs and their
/// factors stay near half a gigabyte.
pub const BURST: usize = 512;

/// Interactive jobs carry a deadline generous enough that nothing is shed.
const INTERACTIVE_DEADLINE: Duration = Duration::from_secs(30);

/// Warm-up jobs of every shape: one fused group of `max_batch`.
const WARMUP_GROUP: usize = 8;

/// Seeded matrix pools per shape with their `caqr_cpu` references,
/// computed once outside timing.
pub struct Inputs {
    pub mats: Vec<Vec<Matrix<f64>>>,
    pub refs: Vec<Vec<Matrix<f64>>>,
}

/// The seeded matrix pools of a run, one per shape.
fn pools(seed: u64) -> Vec<Vec<Matrix<f64>>> {
    let mut rng = Rng::new(seed, 1);
    SERVICE_SHAPES
        .iter()
        .map(|s| gen::matrix_pool(s.m, s.n, gen::POOL_PER_SHAPE, &mut rng))
        .collect()
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mats = pools(seed);
        let refs = SERVICE_SHAPES
            .iter()
            .zip(&mats)
            .map(|(s, pool)| {
                pool.iter()
                    .map(|a| {
                        caqr::caqr_cpu(a.clone(), s.opts())
                            .expect("reference factorization of a seeded matrix")
                            .a
                    })
                    .collect()
            })
            .collect();
        Inputs { mats, refs }
    }

    /// The job's spec, its matrix copied into a recycled buffer.
    fn spec(&self, job: &Job, free: &mut [Vec<Matrix<f64>>]) -> JobSpec<f64> {
        let shape = SERVICE_SHAPES[job.shape];
        let src = &self.mats[job.shape][job.input];
        let mut a = free[job.shape]
            .pop()
            .unwrap_or_else(|| Matrix::zeros(shape.m, shape.n));
        a.as_mut_slice().copy_from_slice(src.as_slice());
        let spec = JobSpec::new(a, shape.opts())
            .tenant(TENANTS[job.tenant])
            .priority(job.priority);
        if job.priority == Priority::Interactive {
            spec.deadline(INTERACTIVE_DEADLINE)
        } else {
            spec
        }
    }
}

fn job_flops(job: &Job) -> f64 {
    let s = SERVICE_SHAPES[job.shape];
    dense::geqrf_flops(s.m, s.n)
}

/// A submitted job awaiting its outcome.
pub struct Pending {
    op: u64,
    job: Job,
    due: Instant,
    admitted: Instant,
    ticket: Ticket<f64>,
    traced: bool,
}

/// One resolved job, as seen from outside the service.
#[derive(Clone, Debug)]
pub struct Done {
    pub priority: Priority,
    /// Completed and bit-identical to its reference.
    pub ok: bool,
    /// `(admission - due) + JobOutcome::latency`.
    pub latency_ms: f64,
    /// `admission - due`: how late the load generator submitted it.
    pub late_ms: f64,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub fused_with: usize,
    pub launches: usize,
    pub flops: f64,
    pub dispatch: Instant,
    pub complete: Instant,
    pub traced: bool,
}

impl Done {
    /// A job that has not (or not successfully) been served.
    fn unserved(job: &Job, due: Instant, admitted: Instant, traced: bool) -> Done {
        Done {
            priority: job.priority,
            ok: false,
            latency_ms: 0.0,
            late_ms: admitted.saturating_duration_since(due).as_secs_f64() * 1e3,
            queue_ms: 0.0,
            service_ms: 0.0,
            fused_with: 1,
            launches: 0,
            flops: 0.0,
            dispatch: admitted,
            complete: admitted,
            traced,
        }
    }
}

/// Wait for one job, check it, and hand back its buffer for reuse.
fn resolve(p: Pending, inputs: &Inputs, tracer: &mut Tracer) -> (Done, Option<Matrix<f64>>) {
    let late = p.admitted.saturating_duration_since(p.due);
    let mut done = Done::unserved(&p.job, p.due, p.admitted, p.traced);
    let Ok(outcome) = p.ticket.wait() else {
        return (done, None);
    };
    done.latency_ms = (late + outcome.latency).as_secs_f64() * 1e3;
    done.queue_ms = outcome.queue_wait.as_secs_f64() * 1e3;
    done.service_ms = outcome
        .latency
        .saturating_sub(outcome.queue_wait)
        .as_secs_f64()
        * 1e3;
    done.fused_with = outcome.fused_with;
    done.dispatch = p.admitted + outcome.queue_wait;
    done.complete = p.admitted + outcome.latency;
    let buffer = match outcome.result {
        Ok(f) => {
            done.ok = same_bits(&f.a, &inputs.refs[p.job.shape][p.job.input]);
            done.launches = caqr::service::logical_launches(&f);
            if done.ok {
                done.flops = job_flops(&p.job);
            }
            Some(f.a)
        }
        Err(_) => None,
    };
    if p.traced {
        let root = tracer.interval("service.job", 0, p.op, 0, p.due, done.complete, 0.0);
        tracer.interval("queue.wait", 1, p.op, root, p.admitted, done.dispatch, 0.0);
        tracer.interval(
            "batch.run",
            1,
            p.op,
            root,
            done.dispatch,
            done.complete,
            done.flops,
        );
    }
    (done, buffer)
}

fn config(queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity,
        ..ServiceConfig::default()
    }
}

/// Start a service and run one warm-up group of every shape through it,
/// each job on the first matrix of its shape's pool. Returns the service,
/// the time from before the start to the last warm-up result, and a digest
/// of the warm-up results in submission order.
fn warm_start(cfg: &ServiceConfig, mats: &[Vec<Matrix<f64>>]) -> (Service<f64>, Duration, u64) {
    let specs: Vec<JobSpec<f64>> = SERVICE_SHAPES
        .iter()
        .zip(mats)
        .flat_map(|(shape, pool)| {
            (0..WARMUP_GROUP).map(move |_| JobSpec::new(pool[0].clone(), shape.opts()))
        })
        .collect();
    let start = Instant::now();
    let svc = Service::<f64>::start(cfg.clone());
    let tickets: Vec<Option<Ticket<f64>>> = specs.into_iter().map(|s| svc.submit(s).ok()).collect();
    let results: Vec<Option<Matrix<f64>>> = tickets
        .into_iter()
        .map(|t| t?.wait().ok()?.result.ok().map(|f| f.a))
        .collect();
    let took = start.elapsed();
    let d = results.iter().fold(DIGEST_SEED, |h, r| match r {
        Some(a) => digest(h, a.as_slice()),
        None => digest(h, &[f64::NAN]),
    });
    (svc, took, d)
}

/// The digest [`warm_start`] gives when every warm-up result equals its
/// reference.
fn warm_digest(refs: &[Vec<Matrix<f64>>]) -> u64 {
    refs.iter().fold(DIGEST_SEED, |h, pool| {
        (0..WARMUP_GROUP).fold(h, |h, _| digest(h, pool[0].as_slice()))
    })
}

/// One cold set-up, in a fresh process: `Service::start` plus its warm-up
/// groups. Returns its time and the digest of the warm-up results.
pub fn cold_setup(seed: u64) -> (Duration, u64) {
    let (svc, took, d) = warm_start(&config(BURST), &pools(seed));
    svc.shutdown();
    (took, d)
}

/// What a service run measured.
pub struct ServiceRun {
    pub done: Vec<Done>,
    pub ledger: ServiceLedger,
    /// Useful flops over busy wall time, GFLOP/s.
    pub gflops: f64,
    /// Digest of the warm-up results, when they equal their references.
    pub setup_digest: Option<u64>,
    /// `dense::arena` misses while the workload ran.
    pub arena_misses: u64,
}

/// `service_burst`: bursts of `size` jobs due at once, back to back, until
/// the window closes (at least one burst). Each burst's inputs are staged
/// into recycled buffers before it is due. Outcomes are collected in
/// priority order — the order a deep backlog is served in — so finished
/// results do not pile up while an earlier ticket is still queued.
pub fn burst(
    seed: u64,
    window: Duration,
    size: usize,
    tracer: &mut Tracer,
    mode: TraceMode,
) -> ServiceRun {
    let inputs = Inputs::new(seed);
    let (svc, _, warm) = warm_start(&config(size), &inputs.mats);
    let setup_digest = Some(warm).filter(|&d| d == warm_digest(&inputs.refs));
    let mut free: Vec<Vec<Matrix<f64>>> = vec![Vec::new(); SERVICE_SHAPES.len()];
    let mut jobs = JobGen::new(seed);
    let dues = vec![Duration::ZERO; size];
    let mut done = Vec::new();
    let mut rates = Vec::new();
    let mut op = 0u64;
    let arena = dense::arena::stats::<f64>();
    let end = Instant::now() + window;
    let mut index = 0u64;
    while index == 0 || Instant::now() < end {
        let traced = mode.traced(index);
        tracer.enabled = traced;
        let burst = jobs.burst(size);
        let mut specs = burst
            .iter()
            .map(|j| inputs.spec(j, &mut free))
            .collect::<Vec<_>>()
            .into_iter();
        let due = Instant::now();
        let mut pending = Vec::with_capacity(size);
        open_loop(
            &mut WallClock(due),
            &dues,
            |_| specs.next().expect("one staged spec per job"),
            |_, i, spec, admitted| {
                op += 1;
                let admitted = due + admitted;
                let span = tracer.open("loadgen.submit", 0, op, 0);
                let submitted = svc.submit(spec);
                tracer.close(span, 0.0);
                let job = burst[i].clone();
                match submitted {
                    Ok(ticket) => pending.push(Pending {
                        op,
                        job,
                        due,
                        admitted,
                        ticket,
                        traced,
                    }),
                    Err(_) => done.push(Done::unserved(&job, due, admitted, false)),
                }
            },
        );
        pending.sort_by_key(|p| p.job.priority);
        let (mut flops, mut last) = (0.0, due);
        for p in pending {
            let shape = p.job.shape;
            let (d, buffer) = resolve(p, &inputs, tracer);
            free[shape].extend(buffer);
            flops += d.flops;
            last = last.max(d.complete);
            done.push(d);
        }
        rates.push(flops / last.duration_since(due).as_secs_f64() / 1e9);
        index += 1;
    }
    tracer.enabled = false;
    let arena_misses = arena_misses_since(arena);
    let ledger = svc.ledger();
    svc.shutdown();
    ServiceRun {
        done,
        ledger,
        gflops: stats::median_of(rates),
        setup_digest,
        arena_misses,
    }
}

/// Time source of the open loop; a fake one in the tests.
pub trait Clock {
    /// Time since the loop started.
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&mut self, t: Duration) {
        if let Some(gap) = t.checked_sub(self.now()) {
            std::thread::sleep(gap);
        }
    }
}

/// Drive an open loop: stage request `i`, sleep until it is due, then
/// submit it with its admission time. Requests are timed from when they
/// were due, so a stalled submit is charged to every request queued up
/// behind it, not hidden by the generator falling behind.
pub fn open_loop<C: Clock, S>(
    clock: &mut C,
    dues: &[Duration],
    mut stage: impl FnMut(usize) -> S,
    mut submit: impl FnMut(&mut C, usize, S, Duration),
) {
    for (i, &due) in dues.iter().enumerate() {
        let staged = stage(i);
        clock.sleep_until(due);
        let admitted = clock.now();
        submit(clock, i, staged, admitted);
    }
}

/// A service run as a workload measurement. Latency samples are the
/// completed, checked jobs; failed, shed or refused jobs count against
/// `success_share` instead. A ledger that does not reconcile fails the run.
pub fn measured(run: ServiceRun) -> Measured {
    let samples = run
        .done
        .iter()
        .filter(|d| d.ok)
        .map(|d| Sample {
            ms: d.latency_ms,
            interactive: d.priority == Priority::Interactive,
            traced: d.traced,
        })
        .collect::<Vec<_>>();
    let reconciled = run.ledger.reconcile();
    let mut record = vec![(
        "ledger_reconcile",
        format!(
            "\"{}\"",
            reconciled.as_ref().err().map_or("ok", |e| e.as_str())
        ),
    )];
    record.push(("jobs", run.done.len().to_string()));
    Measured {
        attempted: run.done.len() as u64,
        failed: (run.done.len() - samples.len()) as u64,
        samples,
        checks_passed: run.setup_digest.is_some() && reconciled.is_ok(),
        gflops: run.gflops,
        factor_gflops: run.gflops,
        setup_digest: run.setup_digest,
        arena_misses: run.arena_misses,
        layer: layer_metrics(&run),
        record,
    }
}

/// Per-layer metrics of the queue, batch, ledger and load-generator
/// layers, from the outcomes and the ledger.
pub fn layer_metrics(run: &ServiceRun) -> Vec<(&'static str, f64)> {
    let done = &run.done;
    let jobs = done.len().max(1) as f64;
    let wait: Vec<f64> = done.iter().map(|d| d.queue_ms).collect();
    let service: Vec<f64> = done.iter().map(|d| d.service_ms).collect();
    let iwait: Vec<f64> = done
        .iter()
        .filter(|d| d.priority == Priority::Interactive)
        .map(|d| d.queue_ms)
        .collect();
    let mut late: Vec<f64> = done.iter().map(|d| d.late_ms).collect();
    let late = stats::sorted(&mut late);
    let g = &run.ledger.global;
    let (wait_p50, wait_tail) = stats::summarize(wait);
    vec![
        ("queue.wait_ms_p50", wait_p50),
        ("queue.wait_ms_tail", wait_tail.value),
        ("queue.service_ms_p50", stats::summarize(service).0),
        (
            "queue.interactive_wait_ms_tail",
            stats::summarize(iwait).1.value,
        ),
        (
            "batch.group_size_mean",
            done.iter().map(|d| d.fused_with as f64).sum::<f64>() / jobs,
        ),
        (
            "batch.fused_share",
            g.fused_jobs as f64 / (g.fused_jobs + g.solo_jobs).max(1) as f64,
        ),
        (
            "caqr_cpu.launches_per_op",
            done.iter().map(|d| d.launches as f64).sum::<f64>() / jobs,
        ),
        (
            "ledger.reconciled",
            f64::from(u8::from(run.ledger.reconcile().is_ok())),
        ),
        ("ledger.jobs_failed", g.jobs_failed as f64),
        (
            "ledger.jobs_shed",
            (g.jobs_shed + g.jobs_shed_overload) as f64,
        ),
        ("loadgen.late_ms_p99", stats::percentile(late, 99.0)),
        ("loadgen.late_ms_max", late[late.len() - 1]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0
        }
        fn sleep_until(&mut self, t: Duration) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn a_stalled_submit_is_charged_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        let dues = [ms(0), ms(5), ms(10), ms(15), ms(60)];
        let mut clock = FakeClock(Duration::ZERO);
        let mut late = Vec::new();
        open_loop(
            &mut clock,
            &dues,
            |i| i,
            |clock, i, _, admitted| {
                late.push(admitted - dues[i]);
                if i == 1 {
                    // This submit blocks for 30 ms.
                    clock.0 += ms(30);
                }
            },
        );
        assert_eq!(late, vec![ms(0), ms(0), ms(25), ms(20), ms(0)]);
    }
}
