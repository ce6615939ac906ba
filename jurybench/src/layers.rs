//! The traced run's per-layer measurements. Spans are recorded from the
//! benchmark's own code around calls into each layer, never inside the
//! program: the HTTP round trip comes from the served run, and twins of
//! the inner layers — an in-process `Frontend`, a bare `JuryService`,
//! the direct solvers on presorted orders and `PoiBin` — receive the
//! identical operation sequence. A layer's self time for one operation
//! is its span minus the nearest inner layer's span for the same
//! operation id.

use crate::inputs::{self, Step, FIRST_PAYM_BUDGET};
use crate::lifecycle::{
    register, service_config, solve_body, Class, Metric, Replay, Replayed, Samples,
};
use crate::stats::{self, ms, us};
use jury_core::altr::AltrAlg;
use jury_core::juror::Juror;
use jury_core::paym::{PayAlg, PayConfig};
use jury_core::problem::Selection;
use jury_core::solver::{sorted_order_into, SolverScratch};
use jury_core::wire::Envelope;
use jury_frontend::{Frontend, FrontendConfig, FrontendStats};
use jury_numeric::poibin::PoiBin;
use jury_service::{DecisionTask, JuryService, ServiceStats};
use serde::{json, Deserialize};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The service's pmf-ladder cap: the size of the pmfs a write's
/// deconvolution repairs.
const LADDER_PMF: usize = 1024;
/// Deconvolutions timed per phase-A pool.
const DECONV_SAMPLES: usize = 16;

/// Layer boundaries, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Http,
    Frontend,
    Service,
    Core,
    Numeric,
}

impl Layer {
    /// Operation ids of phase-A builds start here; serving steps use
    /// their index in the replayed record list.
    pub const COLD_OPS: u64 = 1 << 40;
    const INWARD: [Layer; 5] =
        [Layer::Http, Layer::Frontend, Layer::Service, Layer::Core, Layer::Numeric];

    fn parent(self) -> Option<Layer> {
        let at = Self::INWARD.iter().position(|&l| l == self).expect("listed");
        at.checked_sub(1).map(|i| Self::INWARD[i])
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// The layer whose call contains this one.
    parent: Option<Layer>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Served {
    inline_share: f64,
    queue_wait_mean_us: f64,
    checkpoints: f64,
    pmf_repairs: f64,
    pmf_rebuild_ratio: f64,
    staircase_hit_ratio: f64,
}

pub struct Layers {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per logged step: when serving sent it (ms) and its round trip (µs).
    pub timing: Vec<(f32, f32)>,
    pub update_us: Vec<f64>,
    m: Measures,
}

/// Raw per-layer samples and counters.
#[derive(Default)]
struct Measures {
    served: Served,
    hit_ops: Vec<u64>,
    cold_ops: Vec<u64>,
    service_hit_us: Vec<f64>,
    service_resolve_us: Vec<f64>,
    submit_hit_us: Vec<f64>,
    http_hit_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    response_bytes: Vec<f64>,
    commit_ms: Vec<f64>,
    commit_written: Vec<f64>,
    commit_bytes: Vec<f64>,
    warm_ms: Vec<f64>,
    sort_ms: Vec<f64>,
    pruned_ms: Vec<f64>,
    survivors: Vec<f64>,
    survivor_ratio: Vec<f64>,
    paym_ms: Vec<f64>,
    push_ns: Vec<f64>,
    normal_share: Vec<f64>,
    deconv_us: Vec<f64>,
    scratch: SolverScratch,
}

impl Layers {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            timing: Vec::new(),
            update_us: Vec::new(),
            m: Measures::default(),
        }
    }

    pub fn timing(&self, index: usize) -> (f32, f32) {
        self.timing.get(index).copied().unwrap_or_default()
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn span(&mut self, layer: Layer, op: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        self.spans.push(Span { layer, parent: layer.parent(), op, start_ns, end_ns });
    }

    /// The inner layers of one phase-A build, on the same pool: the
    /// service's `warm_pool`, the direct solvers on a presorted order,
    /// and `PoiBin` over the depth the pruned scan reaches.
    pub fn cold_build(&mut self, op: u64, jurors: &[Juror]) {
        self.m.cold_ops.push(op);
        let mut service = JuryService::with_config(service_config(None));
        let id = service.create_pool(jurors.to_vec());
        let started = Instant::now();
        service.warm_pool(id).expect("a registered pool warms");
        self.m.warm_ms.push(ms(started.elapsed()));
        drop(service);

        let mut order = Vec::new();
        let core_start = Instant::now();
        sorted_order_into(jurors, &mut order);
        let sorted = Instant::now();
        let altr = AltrAlg::default()
            .solve_pruned(jurors, &order, &mut self.m.scratch)
            .expect("a non-empty pool solves");
        let core_end = Instant::now();
        self.m.sort_ms.push(ms(sorted - core_start));
        self.m.pruned_ms.push(ms(core_end - sorted));
        self.span(Layer::Core, op, core_start, core_end);
        let survivors = altr.stats.jer_evaluations;
        self.m.survivors.push(survivors as f64);
        self.m
            .survivor_ratio
            .push(stats::ratio(survivors as f64, altr.stats.candidates_considered as f64));

        let mut greedy = Vec::new();
        PayAlg::greedy_order_into(jurors, &mut greedy);
        let started = Instant::now();
        PayAlg::new(FIRST_PAYM_BUDGET, PayConfig::default())
            .solve_presorted(jurors, &greedy, &mut self.m.scratch)
            .expect("the phase-A budget is feasible");
        self.m.paym_ms.push(ms(started.elapsed()));

        // The pruned scan pushes up to its largest survivor; survivors
        // are the odd sizes below it, so the depth is about twice their
        // count.
        let eps: Vec<f64> = order.iter().map(|&i| jurors[i].epsilon()).collect();
        let depth = (2 * survivors).saturating_sub(1).clamp(1, eps.len());
        let mut pmf = PoiBin::empty();
        let started = Instant::now();
        for &e in &eps[..depth] {
            pmf.push(std::hint::black_box(e));
        }
        let pushed = Instant::now();
        self.span(Layer::Numeric, op, started, pushed);
        self.m.push_ns.push((pushed - started).as_nanos() as f64 / depth as f64);
        let normal = pmf.pmf().iter().filter(|&&p| p >= f64::MIN_POSITIVE).count();
        self.m.normal_share.push(stats::ratio(normal as f64, pmf.pmf().len() as f64));

        let ladder = LADDER_PMF.min(eps.len());
        let mut pmf = PoiBin::empty();
        for &e in &eps[..ladder] {
            pmf.push(e);
        }
        // Halving keeps the replacement rate clear of the deconvolution
        // guard band around ½ in both directions.
        let (mut old, mut new) = (eps[ladder / 2], eps[ladder / 2] * 0.5);
        for _ in 0..DECONV_SAMPLES {
            let started = Instant::now();
            let repaired = pmf.replace_factor(old, new);
            self.m.deconv_us.push(us(started.elapsed()));
            if repaired.is_err() {
                break;
            }
            std::mem::swap(&mut old, &mut new);
        }
    }

    /// Front-end and service counters over the served run.
    pub fn served(
        &mut self,
        frontend: &FrontendStats,
        before: &ServiceStats,
        after: &ServiceStats,
        paym_solves: usize,
    ) {
        let repairs = (after.pmf_repairs - before.pmf_repairs) as f64;
        let rebuilds = (after.pmf_rebuilds - before.pmf_rebuilds) as f64;
        self.m.served = Served {
            inline_share: stats::ratio(frontend.inline_solves as f64, frontend.requests as f64),
            queue_wait_mean_us: stats::ratio(
                frontend.queue_wait_nanos as f64 / 1e3,
                frontend.coalesced_tasks as f64,
            ),
            checkpoints: frontend.checkpoints as f64,
            pmf_repairs: repairs,
            pmf_rebuild_ratio: stats::ratio(rebuilds, repairs + rebuilds),
            staircase_hit_ratio: stats::ratio(
                (after.staircase_hits - before.staircase_hits) as f64,
                paym_solves as f64,
            ),
        };
    }

    /// One twin snapshot commit, at a boundary the served run crossed.
    pub fn commit(&mut self, twin: &mut JuryService, dir: &Path) {
        let started = Instant::now();
        if let Ok(report) = twin.snapshot(dir) {
            self.m.commit_ms.push(ms(started.elapsed()));
            self.m.commit_written.push(report.written as f64);
            self.m.commit_bytes.push(report.bytes as f64);
        }
    }

    /// A bare-service twin solve of a served step, plus the wire work
    /// the HTTP layer does around it.
    pub fn service_solve(
        &mut self,
        step: &Replayed,
        task: &DecisionTask,
        start: Instant,
        end: Instant,
        selection: &Selection,
    ) {
        match step.class {
            Class::Hit => {}
            Class::Resolve => {
                self.m.service_resolve_us.push(us(end - start));
                return;
            }
            _ => return,
        }
        let Step::Solve { key, .. } = step.step else { return };
        let op = step.index as u64;
        let (at_ms, rtt_us) = self.timing(step.index);
        self.m.hit_ops.push(op);
        self.m.service_hit_us.push(us(end - start));
        self.m.http_hit_us.push(f64::from(rtt_us));
        self.span(Layer::Service, op, start, end);
        let sent = self.epoch + Duration::from_secs_f64(f64::from(at_ms) / 1e3);
        self.span(Layer::Http, op, sent, sent + Duration::from_secs_f64(f64::from(rtt_us) / 1e6));

        let started = Instant::now();
        let body = json::to_string(&Envelope::ok(selection));
        self.m.encode_us.push(us(started.elapsed()));
        self.m.response_bytes.push(body.len() as f64);
        let request = solve_body(task.pool, key);
        let started = Instant::now();
        let decoded = json::parse(&request)
            .ok()
            .and_then(|v| v.get("task").and_then(|t| DecisionTask::from_value(t).ok()));
        self.m.decode_us.push(us(started.elapsed()));
        debug_assert!(decoded.is_some(), "the request body decodes");
    }

    /// Replays the logged steps through an in-process `Frontend` twin
    /// and times each hit's `submit`.
    pub fn frontend_twin(&mut self, replay: Replay<'_>, initial: &[Vec<Juror>]) {
        let mut service = JuryService::with_config(service_config(None));
        let pools = register(&mut service, initial);
        let frontend = Frontend::start(service, FrontendConfig::default());
        for step in replay {
            match step.step {
                Step::Write { pool, index, juror } if step.ok => {
                    frontend
                        .with_service(|s| s.update_juror(pools[pool], index, juror))
                        .expect("the twin applies the write");
                }
                Step::Write { .. } => {}
                Step::Solve { pool, key } => {
                    let started = Instant::now();
                    let answer = frontend.submit("bench", inputs::task(pools[pool], key));
                    let done = Instant::now();
                    if step.class == Class::Hit && step.ok && answer.is_ok() {
                        self.m.submit_hit_us.push(us(done - started));
                        self.span(Layer::Frontend, step.index as u64, started, done);
                    }
                }
            }
        }
        frontend.shutdown();
    }

    /// Median self time of `layer` over `ops`, in microseconds.
    fn self_us(&self, layer: Layer, ops: &[u64]) -> Option<f64> {
        let mut own: HashMap<u64, u64> = HashMap::new();
        let mut children: HashMap<u64, u64> = HashMap::new();
        for span in &self.spans {
            let took = span.end_ns - span.start_ns;
            if span.layer == layer {
                own.insert(span.op, took);
            } else if span.parent == Some(layer) {
                children.insert(span.op, took);
            }
        }
        let mut selfs: Vec<f64> = ops
            .iter()
            .filter_map(|&op| {
                let child = children.get(&op).copied().unwrap_or(0);
                Some((*own.get(&op)? as f64 - child as f64) / 1e3)
            })
            .collect();
        stats::median(&mut selfs)
    }

    /// Every per-layer metric, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&mut self, full_commit_ms: f64, samples: &Samples) -> Vec<Metric> {
        let hits = self.m.hit_ops.clone();
        let cold = self.m.cold_ops.clone();
        let self_http = self.self_us(Layer::Http, &hits);
        let self_frontend = self.self_us(Layer::Frontend, &hits);
        let self_service_hit = self.self_us(Layer::Service, &hits);
        let self_service_cold = self.self_us(Layer::Service, &cold).map(|v| v / 1e3);
        let self_core = self.self_us(Layer::Core, &cold).map(|v| v / 1e3);
        let self_numeric = self.self_us(Layer::Numeric, &cold).map(|v| v / 1e3);
        let served = &self.m.served;
        let m = |name, unit, value: Option<f64>| Metric { name, unit, value };
        let s = |value: f64| Some(value);
        vec![
            m("frontend.http_rtt_p50_us", "us", stats::median(&mut self.m.http_hit_us)),
            m("frontend.submit_p50_us", "us", stats::median(&mut self.m.submit_hit_us)),
            m("frontend.inline_share", "ratio", s(served.inline_share)),
            m("frontend.queue_wait_mean_us", "us", s(served.queue_wait_mean_us)),
            m("frontend.checkpoints", "count", s(served.checkpoints)),
            m("wire.encode_p50_us", "us", stats::median(&mut self.m.encode_us)),
            m("wire.decode_p50_us", "us", stats::median(&mut self.m.decode_us)),
            m("wire.response_bytes_mean", "bytes", stats::mean(&self.m.response_bytes)),
            m("service.hit_p50_us", "us", stats::median(&mut self.m.service_hit_us)),
            m("service.resolve_p50_us", "us", stats::median(&mut self.m.service_resolve_us)),
            m("service.update_p50_us", "us", stats::median(&mut self.update_us)),
            m("service.pmf_repairs", "count", s(served.pmf_repairs)),
            m("service.pmf_rebuild_ratio", "ratio", s(served.pmf_rebuild_ratio)),
            m("service.staircase_hit_ratio", "ratio", s(served.staircase_hit_ratio)),
            m("service.warm_p50_ms", "ms", stats::median(&mut self.m.warm_ms)),
            m("snapshot.commit_p50_ms", "ms", stats::median(&mut self.m.commit_ms)),
            m("snapshot.written_mean", "count", stats::mean(&self.m.commit_written)),
            m("snapshot.bytes_mean", "bytes", stats::mean(&self.m.commit_bytes)),
            m("snapshot.full_ms", "ms", s(full_commit_ms)),
            m("snapshot.adopt_restored_mean", "count", stats::mean(&samples.adopt_restored)),
            m("core.sort_ms", "ms", stats::median(&mut self.m.sort_ms)),
            m("core.altr_pruned_p50_ms", "ms", stats::median(&mut self.m.pruned_ms)),
            m("core.altr_survivors", "count", stats::mean(&self.m.survivors)),
            m("core.altr_survivor_ratio", "ratio", stats::mean(&self.m.survivor_ratio)),
            m("core.paym_p50_ms", "ms", stats::median(&mut self.m.paym_ms)),
            m("numeric.push_ns", "ns", stats::mean(&self.m.push_ns)),
            m("numeric.pmf_normal_share", "ratio", stats::mean(&self.m.normal_share)),
            m("numeric.deconv_p50_us", "us", stats::median(&mut self.m.deconv_us)),
            m("self.http_us", "us", self_http),
            m("self.frontend_us", "us", self_frontend),
            m("self.service_hit_us", "us", self_service_hit),
            m("self.service_cold_ms", "ms", self_service_cold),
            m("self.core_cold_ms", "ms", self_core),
            m("self.numeric_cold_ms", "ms", self_numeric),
            m("trace.span_cost_ns", "ns", s(span_cost_ns())),
        ]
    }

    pub fn diagnostics(&self) -> Vec<String> {
        vec![format!(
            "trace: {} spans over {} hit and {} cold operations; spans are taken from \
             outside the served path",
            self.spans.len(),
            self.m.hit_ops.len(),
            self.m.cold_ops.len(),
        )]
    }
}

/// Cost of recording one span, in nanoseconds.
fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut layers = Layers::new();
    layers.spans.reserve(N);
    let at = Instant::now();
    let started = Instant::now();
    for op in 0..N as u64 {
        layers.span(Layer::Service, op, at, Instant::now());
    }
    started.elapsed().as_nanos() as f64 / N as f64
}
