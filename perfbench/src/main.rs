//! Repository benchmark: the paper's Workload 1/2 runs, a deep adaptive
//! queue on a 1 005-node machine and a 10 005-node SWF replay.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_w1w2|deep_queue_adaptive|wide_machine_swf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a fixed batch of replays made from `--seed` during
//! set-up, then replayed on one thread, over and over, for `--seconds`.
//! With `--trace 0` every replay is an untraced call to the program's own
//! entry point (`run_experiment` or `run_streaming`) and the run reports
//! the end-to-end metrics. With `--trace 1` every replay runs twice — the
//! program's entry point, then the traced copy of its event loop in
//! `traced.rs` — and the run reports the per-layer split, the program's
//! deterministic work counts and the tracing overhead. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod gen;
mod traced;
mod tracer;

use iosched_experiments::{
    run_experiment, run_streaming, ExperimentConfig, SchedulerKind, StreamingOptions,
};
use iosched_simkit::units::gibps;
use iosched_slurm::{take_queue_prep_counters, take_sweep_steps, take_tree_counters};
use iosched_workloads::{open_swf, workload_1, workload_2, JobSubmission, PaperParams, SwfOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use traced::{LayerCounts, LoopOutcome};
use tracer::{Layer, Tracer};

/// Timed set-ups per untraced run, at least this many and for at least
/// [`SETUP_MIN_SECS`]; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 21;
const SETUP_MIN_SECS: f64 = 0.3;
/// Jobs in the deep adaptive queue's trace (1 005-node machine).
const DEEP_JOBS: u64 = 3_000;
/// Jobs in the wide machine's SWF trace (10 005-node machine).
const WIDE_JOBS: u64 = 5_000;
/// The traced run's layer self times must cover this share of its wall
/// time.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    PaperW1W2,
    DeepQueueAdaptive,
    WideMachineSwf,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_w1w2" => Some(Workload::PaperW1W2),
            "deep_queue_adaptive" => Some(Workload::DeepQueueAdaptive),
            "wide_machine_swf" => Some(Workload::WideMachineSwf),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperW1W2 => "paper_w1w2",
            Workload::DeepQueueAdaptive => "deep_queue_adaptive",
            Workload::WideMachineSwf => "wide_machine_swf",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where the benchmark writes its SWF trace and span files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// I/O shaping of the synthetic traces (the scale bench's settings).
fn swf_opts() -> SwfOptions {
    SwfOptions {
        io_fraction: 0.3,
        io_rate_per_node_bps: gibps(0.2),
        ..SwfOptions::default()
    }
}

fn adaptive_20() -> SchedulerKind {
    SchedulerKind::Adaptive {
        limit_bps: gibps(20.0),
        two_group: true,
    }
}

/// The machine a synthetic workload runs on.
fn scaled_config(kind: SchedulerKind, seed: u64, factor: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_scaled(kind, seed, factor);
    cfg.pretrained = false;
    cfg
}

/// The inputs set-up makes from the seed.
enum Inputs {
    Paper {
        w1: Vec<JobSubmission>,
        w2: Vec<JobSubmission>,
    },
    Deep {
        subs: Vec<JobSubmission>,
    },
    Wide {
        path: PathBuf,
        /// Valid records rendered into the file.
        valid: usize,
    },
}

/// Make the workload's inputs: generate the jobs and, for the SWF
/// workload, render them to a trace file.
fn setup(workload: Workload, seed: u64) -> std::io::Result<Inputs> {
    Ok(match workload {
        Workload::PaperW1W2 => {
            let params = PaperParams::default();
            Inputs::Paper {
                w1: workload_1(&params),
                w2: workload_2(&params),
            }
        }
        Workload::DeepQueueAdaptive => {
            let nodes = scaled_config(adaptive_20(), seed, 67).nodes;
            let opts = swf_opts();
            let subs = gen::seeded_mix(nodes, DEEP_JOBS, seed)
                .iter()
                .filter_map(|r| r.to_submission(&opts))
                .collect();
            Inputs::Deep { subs }
        }
        Workload::WideMachineSwf => {
            let nodes = scaled_config(SchedulerKind::DefaultBackfill, seed, 667).nodes;
            let opts = swf_opts();
            let path = out_dir().join(format!("wide_machine_swf-{}.swf", std::process::id()));
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(
                w,
                "; seeded synthetic SWF trace (nodes={nodes} seed={seed})"
            )?;
            let mut valid = 0;
            for rec in gen::seeded_mix(nodes, WIDE_JOBS, seed) {
                valid += usize::from(rec.to_submission(&opts).is_some());
                writeln!(w, "{}", rec.to_line())?;
            }
            w.flush()?;
            Inputs::Wide { path, valid }
        }
    })
}

/// One replay of a workload: a configuration and the jobs it runs.
struct Replay<'a> {
    cfg: ExperimentConfig,
    input: Input<'a>,
}

enum Input<'a> {
    /// `run_experiment` over a materialised workload.
    Batch(&'a [JobSubmission]),
    /// `run_streaming` over an in-memory trace.
    Stream(&'a [JobSubmission]),
    /// `open_swf` → `run_streaming` over a trace file of `valid` jobs.
    Swf(&'a Path, usize),
}

impl Input<'_> {
    /// Jobs the replay submits: its operations.
    fn jobs(&self) -> u64 {
        match self {
            Input::Batch(w) | Input::Stream(w) => w.len() as u64,
            Input::Swf(_, valid) => *valid as u64,
        }
    }
}

fn replays(inputs: &Inputs, seed: u64) -> Vec<Replay<'_>> {
    match inputs {
        // The three Fig. 6 configurations on both paper workloads.
        Inputs::Paper { w1, w2 } => {
            let kinds = [
                SchedulerKind::DefaultBackfill,
                SchedulerKind::IoAware {
                    limit_bps: gibps(15.0),
                },
                adaptive_20(),
            ];
            [w1, w2]
                .into_iter()
                .flat_map(|w| {
                    kinds.into_iter().map(move |kind| Replay {
                        cfg: ExperimentConfig::paper(kind, seed),
                        input: Input::Batch(w),
                    })
                })
                .collect()
        }
        Inputs::Deep { subs } => vec![Replay {
            cfg: scaled_config(adaptive_20(), seed, 67),
            input: Input::Stream(subs),
        }],
        Inputs::Wide { path, valid } => vec![Replay {
            cfg: scaled_config(SchedulerKind::DefaultBackfill, seed, 667),
            input: Input::Swf(path, *valid),
        }],
    }
}

/// The program's thread-local work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counters {
    index_ops: u64,
    walk_steps: u64,
    sweep_steps: u64,
    tree_descents: u64,
    tree_updates: u64,
}

impl Counters {
    /// Read and reset this thread's counters.
    fn take() -> Self {
        let (index_ops, walk_steps) = take_queue_prep_counters();
        let (tree_descents, tree_updates) = take_tree_counters();
        Counters {
            index_ops,
            walk_steps,
            sweep_steps: take_sweep_steps(),
            tree_descents,
            tree_updates,
        }
    }
}

/// What one replay produced, with the work counts it left behind.
#[derive(Clone, Debug, PartialEq)]
struct RunRecord {
    outcome: LoopOutcome,
    counters: Counters,
}

/// A streaming source over an SWF file that counts the records it
/// ingests and stops at the first malformed line.
struct SwfSource {
    ingested: usize,
    error: Option<String>,
}

impl SwfSource {
    fn new() -> Self {
        SwfSource {
            ingested: 0,
            error: None,
        }
    }

    fn stream<'s>(
        &'s mut self,
        path: &Path,
    ) -> Result<impl Iterator<Item = JobSubmission> + 's, String> {
        let reader = open_swf(path, swf_opts()).map_err(|e| format!("open {path:?}: {e}"))?;
        Ok(reader.map_while(move |r| match r {
            Ok(sub) => {
                self.ingested += 1;
                Some(sub)
            }
            Err(e) => {
                self.error = Some(format!("line {}: {}", e.line, e.message));
                None
            }
        }))
    }

    /// Every rendered valid record was ingested, and nothing else.
    fn check(&self, valid: usize) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(format!("SWF trace did not parse: {e}"));
        }
        if self.ingested != valid {
            return Err(format!(
                "ingested {} records, the generator rendered {valid} valid ones",
                self.ingested
            ));
        }
        Ok(())
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p))))
}

/// One untraced replay through the program's entry point: its record and
/// wall time, or why its jobs count as failed.
fn run_program(r: &Replay) -> Result<(RunRecord, f64), String> {
    let opts = StreamingOptions::default();
    let jobs = r.input.jobs();
    Counters::take();
    let (outcome, secs) = guarded(|| match r.input {
        Input::Batch(w) => {
            let t = Instant::now();
            let res = run_experiment(&r.cfg, w);
            let secs = t.elapsed().as_secs_f64();
            if res.jobs.len() != w.len() {
                return Err(format!("{} of {} jobs recorded", res.jobs.len(), w.len()));
            }
            if let Some(j) = res
                .jobs
                .iter()
                .find(|j| j.timed_out || j.start < j.submit || j.end < j.start)
            {
                return Err(format!("job {} did not run to completion: {j:?}", j.id));
            }
            let waits: f64 = res.jobs.iter().map(|j| j.wait().as_secs_f64()).sum();
            let outcome = LoopOutcome {
                jobs_completed: res.jobs.len() as u64,
                makespan_secs: res.makespan_secs,
                mean_wait_secs: waits / res.jobs.len().max(1) as f64,
                sched_passes: res.sched_passes,
                rounds_elided: res.rounds_elided,
                loop_iterations: res.loop_iterations,
                peak_resident_jobs: w.len(),
            };
            Ok((outcome, secs))
        }
        Input::Stream(subs) => {
            let t = Instant::now();
            let res = run_streaming(&r.cfg, subs.iter().cloned(), &opts);
            Ok((streamed(&res), t.elapsed().as_secs_f64()))
        }
        Input::Swf(path, valid) => {
            let mut src = SwfSource::new();
            let t = Instant::now();
            let res = run_streaming(&r.cfg, src.stream(path)?, &opts);
            let secs = t.elapsed().as_secs_f64();
            src.check(valid)?;
            Ok((streamed(&res), secs))
        }
    })?;
    let counters = Counters::take();
    if outcome.jobs_completed != jobs {
        return Err(format!(
            "{} of {jobs} jobs completed",
            outcome.jobs_completed
        ));
    }
    if outcome.peak_resident_jobs > opts.window {
        return Err(format!(
            "{} resident jobs exceed the {}-job admission window",
            outcome.peak_resident_jobs, opts.window
        ));
    }
    Ok((RunRecord { outcome, counters }, secs))
}

fn streamed(res: &iosched_experiments::StreamingResult) -> LoopOutcome {
    LoopOutcome {
        jobs_completed: res.jobs_completed,
        makespan_secs: res.makespan_secs,
        mean_wait_secs: res.mean_wait_secs,
        sched_passes: res.sched_passes,
        rounds_elided: res.rounds_elided,
        loop_iterations: res.loop_iterations,
        peak_resident_jobs: res.peak_resident_jobs,
    }
}

/// One traced replay through the copy of the event loop.
fn run_traced(r: &Replay, tr: &mut Tracer, counts: &mut LayerCounts) -> Result<RunRecord, String> {
    let opts = StreamingOptions::default();
    Counters::take();
    let outcome = guarded(|| match r.input {
        Input::Batch(w) => Ok(traced::traced_batch(&r.cfg, w, tr, counts)),
        Input::Stream(subs) => Ok(traced::traced_streaming(
            &r.cfg,
            subs.iter().cloned(),
            &opts,
            tr,
            counts,
        )),
        Input::Swf(path, valid) => {
            let mut src = SwfSource::new();
            let out = traced::traced_streaming(&r.cfg, src.stream(path)?, &opts, tr, counts);
            src.check(valid)?;
            Ok(out)
        }
    });
    // A panic unwinds past the spans the copy had open; close them so
    // the next replay's spans do not nest under them.
    let outcome = outcome.inspect_err(|_| tr.abandon_open())?;
    Ok(RunRecord {
        outcome,
        counters: Counters::take(),
    })
}

/// Whether one more repetition fits in the run's `seconds`, judged by
/// the mean length of the `done` repetitions since `start`. The first
/// always runs.
fn another_fits(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done == 0 || elapsed + elapsed / done as f64 <= seconds
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Replays whose record differed from the first repetition's.
    nondeterministic: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn print(&self) {
        let correct = self.failed == 0 && self.nondeterministic == 0;
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Per-replay results of the first repetition, which later repetitions
/// must reproduce exactly.
struct Reference {
    records: Vec<Option<RunRecord>>,
}

impl Reference {
    fn new(replays: usize) -> Self {
        Reference {
            records: vec![None; replays],
        }
    }

    /// Record `rec` for replay `i`; false when it differs from the
    /// reference.
    fn agrees(&mut self, i: usize, rec: &RunRecord) -> bool {
        match &self.records[i] {
            None => {
                self.records[i] = Some(rec.clone());
                true
            }
            Some(first) => first == rec,
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: create {:?}: {e}", out_dir());
        std::process::exit(1);
    }

    let inputs = match setup(args.workload, args.seed) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    // Set-up is timed in a warm process, after the first (untimed) one:
    // a few milliseconds of work straight after process start mostly
    // measure the start-up transient.
    let setup_s = (!args.trace).then(|| {
        let mut secs = Vec::new();
        let start = Instant::now();
        while secs.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECS {
            let t = Instant::now();
            if let Err(e) = setup(args.workload, args.seed) {
                eprintln!("error: set-up failed: {e}");
                std::process::exit(1);
            }
            secs.push(t.elapsed().as_secs_f64());
        }
        median(&secs)
    });
    let plan = replays(&inputs, args.seed);
    let mut report = if args.trace {
        run_traced_mode(&args, &plan)
    } else {
        run_untraced_mode(&args, &plan)
    };
    if let Some(secs) = setup_s {
        report.push("setup_s", secs, "s");
    }
    if let Inputs::Wide { path, .. } = &inputs {
        let _ = std::fs::remove_file(path);
    }
    report.print();
}

/// Repeat the workload's replays through the program's entry points for
/// the run's seconds; report the end-to-end metrics.
fn run_untraced_mode(args: &Args, plan: &[Replay]) -> Report {
    let mut rep = Report::default();
    let mut reference = Reference::new(plan.len());
    let mut walls = Vec::new();
    let mut peak_rss = 0.0;
    let start = Instant::now();
    while another_fits(start, walls.len(), args.seconds) {
        let mut wall = 0.0;
        for (i, r) in plan.iter().enumerate() {
            rep.attempted += r.input.jobs();
            match run_program(r) {
                Ok((rec, secs)) => {
                    wall += secs;
                    if !reference.agrees(i, &rec) {
                        eprintln!(
                            "replay {i} ({}): differs from its first run",
                            r.cfg.scheduler.label()
                        );
                        rep.nondeterministic += 1;
                    }
                }
                Err(e) => {
                    eprintln!("replay {i} ({}): {e}", r.cfg.scheduler.label());
                    rep.failed += r.input.jobs();
                }
            }
        }
        if walls.is_empty() {
            // Later repetitions reuse the first one's memory; what they
            // add to the high-water mark is allocator drift.
            peak_rss = peak_rss_mb();
        }
        walls.push(wall);
    }

    let jobs: u64 = plan.iter().map(|r| r.input.jobs()).sum();
    let outcomes: Vec<&LoopOutcome> = reference
        .records
        .iter()
        .flatten()
        .map(|r| &r.outcome)
        .collect();
    let makespan: f64 = outcomes.iter().map(|o| o.makespan_secs).sum();
    let waited: f64 = outcomes
        .iter()
        .map(|o| o.mean_wait_secs * o.jobs_completed as f64)
        .sum();
    let completed: u64 = outcomes.iter().map(|o| o.jobs_completed).sum();
    let wall_s = median(&walls);
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "{} seed {}: {} repetitions of {jobs} jobs, wall median {wall_s:.4} s [{}]",
        args.workload.name(),
        args.seed,
        walls.len(),
        listed.join(" "),
    );
    rep.push("wall_s", wall_s, "s");
    rep.push("jobs_per_s", jobs as f64 / wall_s, "1/s");
    eprintln!(
        "peak RSS {peak_rss:.3} MB after the first repetition, {:.3} MB at the end",
        peak_rss_mb()
    );
    rep.push("peak_rss_mb", peak_rss, "MB");
    rep.push("sim_makespan_s", makespan, "s");
    rep.push("sim_mean_wait_s", waited / completed.max(1) as f64, "s");
    rep
}

/// Repeat (program, traced copy) pairs of every replay for the run's
/// seconds; report the per-layer split and the program's work counts.
fn run_traced_mode(args: &Args, plan: &[Replay]) -> Report {
    let mut rep = Report::default();
    let mut reference = Reference::new(plan.len());
    let mut tr = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut diverged = false;
    let start = Instant::now();
    while another_fits(start, untraced_walls.len(), args.seconds) {
        tr.clear_spans();
        let before = tr.total_s();
        let mut wall = 0.0;
        for (i, r) in plan.iter().enumerate() {
            rep.attempted += r.input.jobs();
            let label = r.cfg.scheduler.label();
            let program = match run_program(r) {
                Ok((rec, secs)) => {
                    wall += secs;
                    rec
                }
                Err(e) => {
                    eprintln!("replay {i} ({label}): {e}");
                    rep.failed += r.input.jobs();
                    continue;
                }
            };
            if !reference.agrees(i, &program) {
                eprintln!("replay {i} ({label}): differs from its first run");
                rep.nondeterministic += 1;
            }
            let mut c = LayerCounts::default();
            match run_traced(r, &mut tr, &mut c) {
                Ok(traced) if traced == program => counts.add(&c),
                Ok(traced) => {
                    eprintln!(
                        "replay {i} ({label}): traced loop diverged\n  program {program:?}\n  traced  {traced:?}"
                    );
                    diverged = true;
                    rep.failed += r.input.jobs();
                }
                Err(e) => {
                    eprintln!("replay {i} ({label}): traced loop {e}");
                    diverged = true;
                    rep.failed += r.input.jobs();
                }
            }
        }
        untraced_walls.push(wall);
        traced_walls.push(tr.total_s() - before);
    }
    if diverged {
        // A traced loop that decides differently measures another loop.
        return rep;
    }

    let reps = untraced_walls.len() as f64;
    let total_traced: f64 = traced_walls.iter().sum();
    let unattributed = tr.self_s(Layer::Run) / total_traced;
    // The program's own counts for one repetition of the workload.
    let records: Vec<&RunRecord> = reference.records.iter().flatten().collect();
    let program = |f: fn(&RunRecord) -> u64| records.iter().map(|r| f(r)).sum::<u64>() as f64;
    let per_rep = |x: u64| x as f64 / reps;

    eprintln!(
        "{} seed {}: {} traced repetitions, traced wall {:.4} s vs untraced {:.4} s, unattributed {:.2}%",
        args.workload.name(),
        args.seed,
        traced_walls.len(),
        median(&traced_walls),
        median(&untraced_walls),
        unattributed * 100.0
    );
    for &l in &Layer::TIMED {
        let self_s = tr.self_s(l) / reps;
        let share = tr.self_s(l) / total_traced;
        eprintln!(
            "  {:<20} {:>9.4} s {:>6.2}%  {:>10} calls",
            l.name(),
            self_s,
            share * 100.0,
            per_rep(tr.calls(l))
        );
        rep.push(format!("{}.self_s", l.name()), self_s, "s");
        rep.push(format!("{}.calls", l.name()), per_rep(tr.calls(l)), "count");
        rep.push(format!("{}.share", l.name()), share, "ratio");
    }
    if unattributed > 1.0 - MIN_COVERAGE {
        eprintln!(
            "layer self times cover {:.2}% of the traced wall time, below {:.0}%",
            (1.0 - unattributed) * 100.0,
            MIN_COVERAGE * 100.0
        );
        rep.failed += plan.iter().map(|r| r.input.jobs()).sum::<u64>();
    }

    rep.push("sched.pass.p50_us", tr.pass_quantile_us(0.50), "us");
    rep.push("sched.pass.p99_us", tr.pass_quantile_us(0.99), "us");
    rep.push("sched.pass.examined", per_rep(counts.examined), "count");
    rep.push("sched.pass.started", per_rep(counts.started), "count");
    let yield_ = counts.started as f64 / counts.examined.max(1) as f64;
    rep.push("sched.pass.start_yield", yield_, "ratio");
    rep.push("sched.pass.pruned", per_rep(counts.pruned), "count");
    let passes = program(|r| r.outcome.sched_passes);
    let elided = program(|r| r.outcome.rounds_elided);
    rep.push("sched.passes", passes, "count");
    rep.push("sched.elision.rounds_elided", elided, "count");
    rep.push(
        "sched.elision.elided_share",
        elided / passes.max(1.0),
        "ratio",
    );
    let iterations = program(|r| r.outcome.loop_iterations);
    rep.push("experiments.loop_iterations", iterations, "count");
    let index_ops = program(|r| r.counters.index_ops);
    rep.push("slurm.queue.index_ops", index_ops, "count");
    let walk_steps = program(|r| r.counters.walk_steps);
    rep.push("slurm.queue.walk_steps", walk_steps, "count");
    let sweep_steps = program(|r| r.counters.sweep_steps);
    rep.push("slurm.profile.sweep_steps", sweep_steps, "count");
    let tree_descents = program(|r| r.counters.tree_descents);
    rep.push("slurm.profile.tree_descents", tree_descents, "count");
    let tree_updates = program(|r| r.counters.tree_updates);
    rep.push("slurm.profile.tree_updates", tree_updates, "count");
    let completions = per_rep(counts.completions);
    rep.push("cluster.advance.completions", completions, "count");
    let per_completion = counts.refreshes as f64 / counts.completions.max(1) as f64;
    rep.push("analytics.estimate.per_completion", per_completion, "count");
    let entries = per_rep(counts.per_job_entries);
    rep.push("ldms.per_job_entries", entries, "count");
    rep.push("workloads.ingest.records", per_rep(counts.records), "count");
    let peak = records.iter().map(|r| r.outcome.peak_resident_jobs).max();
    let peak = peak.unwrap_or(0) as f64;
    rep.push("resident.peak_resident_jobs", peak, "count");
    rep.push("trace.wall_s", median(&traced_walls), "s");
    rep.push("trace.untraced_wall_s", median(&untraced_walls), "s");
    rep.push(
        "trace.overhead_s",
        median(&traced_walls) - median(&untraced_walls),
        "s",
    );
    rep.push("trace.unattributed_share", unattributed, "ratio");
    rep.push("trace.spans", tr.span_count() as f64, "count");

    let path = out_dir().join(format!("spans-{}.tsv", args.workload.name()));
    if let Err(e) = tr.write_spans(&path) {
        eprintln!("warning: could not write {path:?}: {e}");
    }
    rep
}
