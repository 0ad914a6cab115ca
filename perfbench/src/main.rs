//! perfbench — one run of one workload.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload metro-dqn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Sets the workload up several times (reporting the median set-up
//! time), runs one warm-up repeat, then timed repeats until `--seconds`
//! have passed. `--trace 0` reports the end-to-end metrics from untraced
//! repeats; `--trace 1` alternates untraced and traced repeats and
//! reports the per-layer metrics, the self-time table and the tracing
//! overhead. Every repeat runs the output checks; a repeat whose check
//! fails counts as failed. The last line of stdout is the JSON result;
//! the full report also goes to `.perfbench_out/` (and, traced, the
//! spans of the last traced repeat as CSV).

use perfbench::report::{self, json_str, Reported};
use perfbench::workloads::{Bench, Repeat, Sizes, Workload};
use perfbench::{pin, trace};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

/// Set-ups per run: at least this many...
const MIN_SETUPS: usize = 3;
/// ...and more while they fit in this budget, up to [`MAX_SETUPS`].
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 25;
/// Timed repeats (after the warm-up) per run, at least.
const MIN_REPEATS: usize = 3;
/// Where reports and span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where and how the numbers were made.
fn provenance(
    args: &Args,
    parallelism: usize,
    pinned: Option<usize>,
    setups: usize,
    untraced: usize,
    traced: usize,
) -> String {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"threads_used\": {}, \
         \"pinned_cpu\": {}, \
         \"build_profile\": {}, \"rustflags\": {}, \"target\": {}, \
         \"target_features\": {}, \"setups\": {setups}, \"warmup_repeats\": 1, \
         \"untraced_repeats\": {untraced}, \"traced_repeats\": {traced}, \"sizes\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        args.workload.threads(),
        pinned.map_or("null".to_string(), |cpu| cpu.to_string()),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(env!("PERFBENCH_TARGET")),
        json_str(&features.join(",")),
        json_str(&format!("{:?}", Sizes::BENCH)),
    )
}

fn run(args: &Args) -> Result<(), String> {
    trace::epoch();
    // Read before pinning narrows the thread's CPU set.
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin::pin_to_last_cpu();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up, several times: the median is `setup_s`, and every set-up
    // must train the same frozen DQN.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let setups_began = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setups_began.elapsed() < SETUP_BUDGET && setup_s.len() < MAX_SETUPS)
    {
        let t0 = Instant::now();
        let bench = Bench::setup(args.workload, args.seed, Sizes::BENCH);
        let built = bench.build();
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += 1;
        if let Some((first, _)) = &prepared {
            let first: &Bench = first;
            if first.frozen_fingerprint() != bench.frozen_fingerprint() {
                failed += 1;
                failures.push("two set-ups with one seed trained different DQNs".into());
            }
        }
        prepared = Some((bench, built));
    }
    let (bench, built) = prepared.expect("at least one set-up");
    let reference = (args.workload == Workload::ServeFleet).then(|| bench.serve_reference());

    // Warm-up, then timed repeats until the budget is spent.
    let budget = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut warmup = bench.repeat(built, false);
    let mut untraced: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let mut last_spans = Vec::new();
    let mut settle = |r: &mut Repeat, failures: &mut Vec<String>, quality_of: Option<&Repeat>| {
        if let Some(reference) = &reference {
            r.check_served(reference);
        }
        if let Some(first) = quality_of {
            if !r.quality.same_bits(&first.quality) {
                r.failures.push(format!(
                    "quality changed between repeats: {} vs {}",
                    r.quality.fingerprint(),
                    first.quality.fingerprint()
                ));
            }
        }
        attempted += 1;
        if !r.failures.is_empty() {
            failed += 1;
            failures.append(&mut r.failures);
        }
    };
    settle(&mut warmup, &mut failures, None);
    loop {
        let enough = untraced.len() >= MIN_REPEATS && (!args.trace || traced.len() >= MIN_REPEATS);
        if enough && began.elapsed() >= budget {
            break;
        }
        let trace_next = args.trace && traced.len() < untraced.len();
        let mut r = bench.repeat(bench.build(), trace_next);
        settle(&mut r, &mut failures, Some(&warmup));
        if trace_next {
            last_spans = std::mem::take(&mut r.spans);
            traced.push(r);
        } else {
            untraced.push(r);
        }
    }
    let measured_s = began.elapsed().as_secs_f64();

    let untraced_refs: Vec<&Repeat> = untraced.iter().collect();
    let traced_refs: Vec<&Repeat> = traced.iter().collect();
    let metrics: Vec<Reported> = if args.trace {
        report::per_layer(&untraced_refs, &traced_refs)
    } else {
        report::end_to_end(&setup_s, &untraced_refs)
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed {}: {} set-ups, 1 warm-up + {} untraced + {} traced repeats in {:.2} s",
        args.workload.name(),
        args.seed,
        setup_s.len(),
        untraced.len(),
        traced.len(),
        measured_s
    );
    let _ = writeln!(
        text,
        "provenance {}",
        provenance(
            args,
            parallelism,
            pinned,
            setup_s.len(),
            untraced.len(),
            traced.len()
        )
    );
    let _ = writeln!(text, "quality {}", warmup.quality.fingerprint());
    let series = |rs: &[Repeat]| -> String {
        let rates: Vec<String> = rs
            .iter()
            .map(|r| format!("{:.1}", r.requests_per_s()))
            .collect();
        rates.join(" ")
    };
    let _ = writeln!(
        text,
        "requests_per_s by untraced repeat: {}",
        series(&untraced)
    );
    if args.trace {
        let _ = writeln!(text, "requests_per_s by traced repeat: {}", series(&traced));
    }
    text.push_str(&report::metric_table(&metrics));
    if args.trace {
        text.push_str(&report::self_time_table(&untraced_refs, &traced_refs));
    }
    for f in &failures {
        let _ = writeln!(text, "CHECK FAILED: {f}");
    }
    let _ = writeln!(
        text,
        "checks: {} of {attempted} set-ups and repeats failed",
        failed
    );
    print!("{text}");

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(format!("{stem}.txt"), &text).map_err(|e| format!("write report: {e}"))?;
    if args.trace {
        let mut csv = String::from("thread,id,parent,layer,start_ns,end_ns\n");
        for (thread, spans) in last_spans.iter().enumerate() {
            trace::spans_csv(&mut csv, thread, spans);
        }
        let path = format!("{OUT_DIR}/{}-spans.csv", args.workload.name());
        std::fs::write(&path, csv).map_err(|e| format!("write {path}: {e}"))?;
    }

    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
