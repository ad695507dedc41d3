//! The closed-loop load generator: one thread, one connection, each
//! request waiting for its reply. A run feeds the workload's streams, one
//! per pass, into a freshly set-up system until its time is up.

use std::time::{Duration, Instant};

use crate::host;
use crate::sut::{self, Answer, RunDir};
use crate::trace::SpanLog;
use crate::workload::{self, Arrivals, Workload};

/// What the oracle expects at the end of a stream.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The final answer of the in-process replay.
    pub answer: Answer,
    /// The replay's retained-element count.
    pub stored: usize,
}

/// A run's streams, generated on demand from its seed. Each stream's
/// oracle replay runs once, on first use.
#[derive(Debug)]
pub struct Streams<'w> {
    workload: &'w Workload,
    seed: u64,
    expected: Vec<Option<Expected>>,
}

impl<'w> Streams<'w> {
    /// The [`workload::STREAMS`] streams of a run seeded with `seed`.
    pub fn new(workload: &'w Workload, seed: u64) -> Streams<'w> {
        Streams {
            workload,
            seed,
            expected: vec![None; workload::STREAMS],
        }
    }

    /// Stream `index` and the oracle's answer for it.
    pub fn get(&mut self, index: usize) -> Result<(Arrivals, Expected), String> {
        let arrivals = workload::generate(self.workload, self.seed, index);
        if self.expected[index].is_none() {
            let (answer, stored) = sut::replay(&arrivals)?;
            self.expected[index] = Some(Expected { answer, stored });
        }
        let expected = self.expected[index].clone().expect("filled above");
        Ok((arrivals, expected))
    }
}

/// Raw samples of one measured run.
#[derive(Debug, Default)]
pub struct E2eRun {
    /// Completed passes.
    pub passes: usize,
    /// Seconds per set-up (one per pass).
    pub setup_s: Vec<f64>,
    /// Microseconds per insert request.
    pub insert_us: Vec<f64>,
    /// Milliseconds per query.
    pub query_ms: Vec<f64>,
    /// Elements acknowledged over the whole run.
    pub acked: u64,
    /// Seconds spent in acknowledged insert requests over the whole run.
    pub insert_busy_s: f64,
    /// Requests attempted (set-ups, inserts, queries).
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Oracle mismatches and errors, first few kept.
    pub problems: Vec<String>,
    /// Final answer of each stream's latest pass.
    pub answers: Vec<Option<Answer>>,
    /// Stored-element count of each stream's latest pass.
    pub stored: Vec<Option<usize>>,
    /// `VmHWM` once the first `min_passes` passes are done.
    pub rss_peak_mb: f64,
}

impl E2eRun {
    fn problem(&mut self, text: String) {
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }

    /// Mean final diversity over the streams that ran.
    pub fn mean_diversity(&self) -> f64 {
        let values: Vec<f64> = self.answers.iter().flatten().map(|a| a.diversity).collect();
        crate::stats::mean(&values)
    }

    /// Elements acknowledged per second spent in insert requests, over the
    /// whole run.
    pub fn insert_eps(&self) -> f64 {
        self.acked as f64 / self.insert_busy_s
    }

    /// Mean stored-element count over the streams that ran.
    pub fn mean_stored(&self) -> f64 {
        let values: Vec<f64> = self.stored.iter().flatten().map(|&s| s as f64).collect();
        crate::stats::mean(&values)
    }
}

/// Knobs of one measured run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Flip the lowest bit of each pass's final diversity before the
    /// oracle sees it — proves the oracle can fail.
    pub tamper_reply: bool,
}

/// Runs passes until `budget` has elapsed and at least `min_passes` are
/// done. With `spans`, every request is also recorded as a span under its
/// pass.
pub fn run(
    workload: &Workload,
    streams: &mut Streams,
    budget: Duration,
    min_passes: usize,
    dir: &RunDir,
    options: Options,
    mut spans: Option<&mut SpanLog>,
) -> E2eRun {
    let mut out = E2eRun {
        answers: vec![None; workload::STREAMS],
        stored: vec![None; workload::STREAMS],
        rss_peak_mb: f64::NAN,
        ..E2eRun::default()
    };
    let start = Instant::now();
    let mut pass = 0usize;
    loop {
        let index = pass % workload::STREAMS;
        let (arrivals, expected) = match streams.get(index) {
            Ok(stream) => stream,
            Err(e) => {
                out.problem(format!("stream {index}: {e}"));
                break;
            }
        };
        let name = format!("p{pass}");
        out.attempted += 1;
        let t = Instant::now();
        let target = sut::setup(workload, &arrivals, &name, dir.sub(&name));
        out.setup_s.push(t.elapsed().as_secs_f64());
        let mut target = match target {
            Ok(target) => target,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("setup: {e}"));
                break;
            }
        };
        let pass_span = spans.as_deref_mut().map(|log| log.begin());
        let pass_id = pass_span.map_or(0, |(id, _)| id);
        let mut last = None;
        let requests = arrivals.elements.len().div_ceil(workload.batch);
        for (i, chunk) in arrivals.elements.chunks(workload.batch).enumerate() {
            out.attempted += 1;
            let opened = spans.as_deref_mut().map(|log| log.begin());
            let t = Instant::now();
            let result = target.insert(chunk);
            let secs = t.elapsed().as_secs_f64();
            if let (Some(log), Some(opened)) = (spans.as_deref_mut(), opened) {
                log.end(opened, pass_id, "client", "insert", chunk.len() as u64);
            }
            match result {
                Ok(acked) => {
                    out.acked += acked as u64;
                    out.insert_busy_s += secs;
                    out.insert_us.push(secs * 1e6);
                }
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("pass {pass} insert {i}: {e}"));
                }
            }
            if workload::query_after(i, requests, workload.query_every) {
                out.attempted += 1;
                let opened = spans.as_deref_mut().map(|log| log.begin());
                let t = Instant::now();
                let result = target.query();
                let secs = t.elapsed().as_secs_f64();
                if let (Some(log), Some(opened)) = (spans.as_deref_mut(), opened) {
                    log.end(opened, pass_id, "client", "query", 0);
                }
                match result {
                    Ok(answer) => {
                        out.query_ms.push(secs * 1e3);
                        last = Some(answer);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problem(format!("pass {pass} query after insert {i}: {e}"));
                    }
                }
            }
        }
        if let (Some(log), Some(opened)) = (spans.as_deref_mut(), pass_span) {
            log.end(opened, 0, "client", "pass", arrivals.elements.len() as u64);
        }
        let stored = target.stored();
        check_pass(&mut out, pass, index, last, stored, &expected, options);
        if let Err(e) = target.close() {
            out.problem(format!("pass {pass} close: {e}"));
        }
        out.passes += 1;
        pass += 1;
        if out.passes == min_passes {
            out.rss_peak_mb = host::rss_peak_mb();
        }
        if out.passes >= min_passes && start.elapsed() >= budget {
            break;
        }
    }
    out
}

fn check_pass(
    out: &mut E2eRun,
    pass: usize,
    index: usize,
    last: Option<Answer>,
    stored: Result<usize, String>,
    expected: &Expected,
    options: Options,
) {
    match last {
        Some(mut answer) => {
            if options.tamper_reply {
                answer.diversity = f64::from_bits(answer.diversity.to_bits() ^ 1);
            }
            if !answer.same_as(&expected.answer) {
                out.problem(format!(
                    "pass {pass}: final answer {answer:?} differs from the replay's {:?}",
                    expected.answer
                ));
            }
            out.answers[index] = Some(answer);
        }
        None => out.problem(format!("pass {pass}: no final answer")),
    }
    match stored {
        Ok(stored) => {
            if stored != expected.stored {
                out.problem(format!(
                    "pass {pass}: stored={stored} but the replay retains {}",
                    expected.stored
                ));
            }
            out.stored[index] = Some(stored);
        }
        Err(e) => out.problem(format!("pass {pass} stored: {e}")),
    }
}
