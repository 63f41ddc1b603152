//! `traced_audit`: writes beside reads of the `obs`/`audit` codec and
//! checker battery. Write side: one traced 32-node job with a live
//! `StreamAuditor` attached, then `to_jsonl()`. Read side: a fresh
//! auditor re-parses and re-checks every line. Every other workload runs
//! with `obs` off.

use super::{check_run, digest_run, run_stepped, timed, OpOut, Size, Workload};
use crate::digest::Fnv;
use crate::seams::{SpanController, SpanSubscriber};
use crate::span::{scope, Name};
use audit::StreamAuditor;
use insitu::{build_controller, run_job_traced, JobConfig, RunResult, Runtime};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use obs::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

pub struct TracedAudit {
    inputs: Vec<JobConfig>,
    /// Events and JSONL bytes over every op run so far.
    ops_run: u64,
    events: u64,
    bytes: u64,
}

/// Take the finished auditor back out of the handle the tracer fed.
fn live_report(auditor: &Arc<Mutex<StreamAuditor>>) -> audit::AuditReport {
    std::mem::take(&mut *auditor.lock().expect("auditor poisoned")).finish().report
}

impl TracedAudit {
    pub fn generate(seed: u64, size: Size) -> Self {
        let (nodes, steps, ops) = match size {
            Size::Full => (32, 120, 200),
            Size::Smoke => (4, 6, 2),
        };
        let inputs = (0..ops)
            .map(|op| {
                let mut spec = WorkloadSpec::paper(16, nodes, 1, &[K::Rdf, K::Vacf]);
                spec.total_steps = steps;
                JobConfig::new(spec, "seesaw").with_seed(seed, op)
            })
            .collect();
        TracedAudit { inputs, ops_run: 0, events: 0, bytes: 0 }
    }

    /// Both reports clean and byte-equal; the run itself sound.
    fn outcome(
        &mut self,
        cfg: &JobConfig,
        wall_ns: u64,
        run: &RunResult,
        jsonl: &str,
        live: &audit::AuditReport,
        replay: &audit::AuditReport,
    ) -> Result<OpOut, String> {
        check_run(run, cfg)?;
        let (live_json, replay_json) = (live.to_json(), replay.to_json());
        if !live.clean() || !replay.clean() {
            return Err(format!(
                "audit not clean: {} live, {} replayed findings",
                live.violations.len(),
                replay.violations.len()
            ));
        }
        if live_json != replay_json {
            return Err("live and replayed audit reports differ".to_string());
        }
        let events = jsonl.lines().count() as u64;
        if events == 0 || live.events != events {
            return Err(format!("{events} lines written, {} events audited", live.events));
        }
        self.ops_run += 1;
        self.events += events;
        self.bytes += jsonl.len() as u64;
        let mut h = Fnv::default();
        digest_run(&mut h, run);
        h.str(&live_json);
        Ok(OpOut {
            wall_ns,
            work: events,
            digest: h.value(),
            sim_time_s: run.total_time_s,
            sim_energy_j: run.total_energy_j,
        })
    }
}

impl Workload for TracedAudit {
    fn work_unit(&self) -> &'static str {
        "event"
    }

    fn warmup_ops(&self) -> usize {
        self.inputs.len().min(8)
    }

    fn op(&mut self, i: usize) -> Result<OpOut, String> {
        let cfg = self.inputs[i % self.inputs.len()].clone();
        let (wall_ns, out) = timed(|| {
            let tracer = Tracer::enabled();
            let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
            tracer.attach(Box::new(Arc::clone(&auditor)));
            let run = run_job_traced(cfg.clone(), &tracer).map_err(|e| e.to_string())?;
            let jsonl = tracer.to_jsonl();
            drop(tracer);
            let live = live_report(&auditor);
            let mut reader = StreamAuditor::new();
            for line in jsonl.lines() {
                reader.feed_line(line).map_err(|e| e.to_string())?;
            }
            Ok::<_, String>((run, jsonl, live, reader.finish().report))
        });
        let (run, jsonl, live, replay) = out?;
        self.outcome(&cfg, wall_ns, &run, &jsonl, &live, &replay)
    }

    fn op_traced(&mut self, i: usize) -> Result<OpOut, String> {
        let cfg = self.inputs[i % self.inputs.len()].clone();
        let (wall_ns, out) = timed(|| {
            scope(Name::Op, || {
                let tracer = Tracer::enabled();
                let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
                tracer.attach(Box::new(SpanSubscriber(Arc::clone(&auditor))));
                // `run_job_traced` is `Runtime::new` + `set_tracer` + `run`.
                let mut rt = scope(Name::InsituNew, || {
                    let ctl = build_controller(&cfg).map_err(|e| e.to_string())?;
                    let ctl = Box::new(SpanController(ctl));
                    Ok::<_, String>(Runtime::with_controller(cfg.clone(), ctl))
                })?;
                rt.set_tracer(&tracer);
                let run = run_stepped(rt);
                let jsonl = scope(Name::ObsToJsonl, || tracer.to_jsonl());
                drop(tracer);
                let live = scope(Name::AuditFinish, || live_report(&auditor));
                let mut reader = StreamAuditor::new();
                scope(Name::AuditFeedLines, || {
                    jsonl.lines().try_for_each(|line| reader.feed_line(line))
                })
                .map_err(|e| e.to_string())?;
                let replay = scope(Name::AuditFinish, || reader.finish().report);
                Ok::<_, String>((run, jsonl, live, replay))
            })
        });
        let (run, jsonl, live, replay) = out?;
        self.outcome(&cfg, wall_ns, &run, &jsonl, &live, &replay)
    }

    fn layer_counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("obs.events_per_op", self.events as f64 / self.ops_run.max(1) as f64);
        out.insert("obs.bytes_per_event", self.bytes as f64 / self.events.max(1) as f64);
    }
}
