//! Closed-loop clients: each sends its fixed request sequence, one request
//! at a time, and times each request as the caller sees it.

use std::sync::Barrier;
use std::time::Instant;

use foss_service::{PlanClient, PlanOutcome, PlanRequest, QueryRequest};

use crate::setup::Stack;
use crate::trace::SpanLog;

/// What a traced request adds beyond its latency.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// `PlanDoctor::submit`, as timed by its span.
    pub submit_us: f64,
    /// The replay's layer calls, summed.
    pub layers_us: f64,
    /// `PlanClient::plan` on the wire workload.
    pub roundtrip_us: Option<f64>,
    /// Metered latency of the served plan.
    pub work_units: f64,
    pub selected_step: usize,
    pub candidates: usize,
}

/// One phase of requests across every client.
#[derive(Debug)]
pub struct Phase {
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagree with the warm-up reference or, traced, with
    /// the replay.
    pub mismatches: u64,
    pub wall_s: f64,
    pub log: SpanLog,
    pub records: Vec<Record>,
}

impl Phase {
    fn empty(origin: Instant) -> Self {
        Self {
            latencies_us: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            wall_s: 0.0,
            log: SpanLog::new(origin),
            records: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.log.absorb(other.log);
        self.records.extend(other.records);
    }
}

/// Run one phase: client `c` sends `seqs[c]` (pool indices), over the wire
/// when `wire` is set, in-process otherwise. Traced, every request is also
/// submitted in-process (on the wire workload) and replayed call by call.
pub fn run_phase(
    stack: &Stack,
    wire: Option<PlanClient>,
    seqs: &[&[usize]],
    traced: bool,
    origin: Instant,
) -> Phase {
    let start = Barrier::new(seqs.len() + 1);
    let mut total = Phase::empty(origin);
    std::thread::scope(|scope| {
        let clients: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    client(stack, wire, c, seq, traced, origin)
                })
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let phases: Vec<Phase> = clients
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        total.wall_s = t.elapsed().as_secs_f64();
        for p in phases {
            total.absorb(p);
        }
    });
    total
}

fn client(
    stack: &Stack,
    wire: Option<PlanClient>,
    c: usize,
    seq: &[usize],
    traced: bool,
    origin: Instant,
) -> Phase {
    let mut out = Phase::empty(origin);
    out.latencies_us.reserve(seq.len());
    for (k, &idx) in seq.iter().enumerate() {
        let req = ((c as u64) << 40) | k as u64;
        let reference = &stack.reference[idx];
        out.attempted += 1;
        let mut roundtrip_us = None;
        if let Some(client) = wire {
            let plan_req = PlanRequest::for_index(idx);
            let t = Instant::now();
            let id = traced.then(|| out.log.open(req, "http.roundtrip", None));
            let outcome = client.plan(&plan_req);
            if let Some(id) = id {
                out.log.close(id);
            }
            let us = t.elapsed().as_secs_f64() * 1e6;
            match outcome {
                Ok(PlanOutcome::Decision(reply)) => {
                    out.latencies_us.push(us);
                    if reply.fingerprint != reference.fingerprint
                        || reply.selected_step != reference.selected_step
                        || reply.candidates != reference.candidates
                    {
                        out.mismatches += 1;
                    }
                }
                Ok(PlanOutcome::Rejected(_)) | Err(_) => {
                    out.failed += 1;
                    continue;
                }
            }
            if !traced {
                continue;
            }
            roundtrip_us = Some(out.log.spans[id.expect("traced")].us());
        }

        let query = stack.pool[idx].clone();
        let request = QueryRequest::new(query.clone());
        let t = Instant::now();
        let id = traced.then(|| out.log.open(req, "service.submit", None));
        let decision = stack.doctor.submit(request);
        if let Some(id) = id {
            out.log.close(id);
        }
        let us = t.elapsed().as_secs_f64() * 1e6;
        let decision = match decision {
            Ok(d) => d,
            Err(_) => {
                // On the wire workload the round trip already counted.
                if wire.is_none() {
                    out.failed += 1;
                } else {
                    out.mismatches += 1;
                }
                continue;
            }
        };
        if wire.is_none() {
            out.latencies_us.push(us);
        }
        if !reference.matches(&decision) {
            out.mismatches += 1;
        }
        let (Some(replayer), Some(id)) = (&stack.replayer, id) else {
            continue;
        };
        let submit_us = out.log.spans[id].us();
        match replayer.replay(&mut out.log, req, &query) {
            Ok(replayed) => {
                if !replayed.agrees(&decision) {
                    out.mismatches += 1;
                }
                let root = replayed.root;
                let layers_us = out.log.spans[root + 1..]
                    .iter()
                    .filter(|s| s.parent == Some(root))
                    .map(|s| s.us())
                    .sum();
                out.records.push(Record {
                    submit_us,
                    layers_us,
                    roundtrip_us,
                    work_units: decision.latency,
                    selected_step: decision.selected_step,
                    candidates: decision.candidates,
                });
            }
            Err(_) => out.mismatches += 1,
        }
    }
    out
}
