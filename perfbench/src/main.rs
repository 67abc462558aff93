//! `perfbench`: one command that measures FVAE training, serving and
//! streaming end to end, and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run drives the system only through its public functions, in three
//! stages: `train` (SC preset, batch 256), `serve` (router + 2 shards with
//! an ANN store, open-loop embed/nearest mix, then a rate ladder) and
//! `stream` (event log → publisher → coordinated reloads, under embed
//! traffic). The workload picks how embed keys are drawn: `zipf` reuses hot
//! rows so the embedding cache answers a share of them; `uniform` spreads
//! them over the whole population so the cache is mostly bypassed. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics and tracing overhead with `--trace 1`. See
//! `perfbench/README.md` for every metric and the layer it belongs to.

mod fleet;
mod load;
mod report;
mod serve;
mod stats;
mod stream;
mod train;

use std::path::{Path, PathBuf};
use std::time::Instant;

use fvae_data::{MultiFieldDataset, TopicModelConfig};
use fvae_serve::FieldRow;

use report::Record;
use stats::{median, Digest, Rng, Zipf};

/// Traffic rows: SC-preset users generated apart from the training set,
/// eight times the fleet's total cache capacity (2 shards × 4096).
const POPULATION: usize = 65_536;
/// Zipf exponent of the `zipf` workload's key popularity: about a quarter
/// of serve embeds hit the cache, so the median embed stays on the miss
/// path in both workloads and the cache shows in `max_qps` and the hit
/// share.
const ZIPF_S: f64 = 0.7;
/// Set-ups per run; `setup_s` is the sum of each stage's median set-up.
const SETUP_REPS: usize = 3;

/// How a workload draws embed keys from the traffic population.
pub enum Keys {
    Zipf(Zipf),
    Uniform(usize),
}

impl Keys {
    fn for_workload(name: &str) -> Result<Self, String> {
        match name {
            "zipf" => Ok(Keys::Zipf(Zipf::new(POPULATION, ZIPF_S))),
            "uniform" => Ok(Keys::Uniform(POPULATION)),
            other => Err(format!(
                "unknown workload '{other}' (expected zipf or uniform)"
            )),
        }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        match self {
            Keys::Zipf(z) => z.sample(rng),
            Keys::Uniform(n) => rng.below(*n),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => {
                return Err(format!(
                    "unknown flag {flag} (allowed: --workload --seed --seconds --trace)"
                ))
            }
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One measured run; returns the final output line.
fn run(args: &Args, work: &Path) -> Result<String, String> {
    let keys = Keys::for_workload(&args.workload)?;
    if !args.trace {
        let p = pass(args, &keys, work, false, SETUP_REPS)?;
        print_run(args, &p, "end-to-end");
        return Ok(report::final_line(&p.rec.tally, &p.rec.e2e));
    }
    // Traced run: the same pass untraced, then traced; the difference in
    // the end-to-end numbers is the tracing overhead.
    let plain = pass(args, &keys, work, false, 1)?;
    let mut traced = pass(args, &keys, work, true, 1)?;
    print_run(args, &plain, "end-to-end, untraced");
    let rec = &mut traced.rec;
    for m in &plain.rec.e2e.0 {
        if let Some(v) = rec.e2e.get(&m.name) {
            let name = format!("overhead.{}", m.name);
            rec.layers.push(&name, m.unit, v - m.value, None);
        }
    }
    rec.tally
        .ops(plain.rec.tally.attempted, plain.rec.tally.failed);
    rec.tally.checks.extend(plain.rec.tally.checks);
    print_run(args, &traced, "end-to-end, traced");
    let title = "per layer (traced run; overhead.* = traced minus untraced)";
    println!("{}", report::table(title, &traced.rec.layers));
    Ok(report::final_line(&traced.rec.tally, &traced.rec.layers))
}

struct Pass {
    rec: Record,
    /// Digest of the generated request and event sequences.
    inputs: u64,
}

/// Train, serve, then stream, each after its own timed set-up.
fn pass(args: &Args, keys: &Keys, work: &Path, traced: bool, reps: usize) -> Result<Pass, String> {
    let mut rec = Record::default();
    let mut digest = Digest::new();
    let mut setup_s = 0.0;

    let train_setup = timed_setup(reps, &mut setup_s, || Ok(train::setup(args.seed)), drop)?;
    let (model, ds) = train::run(train_setup, &mut rec);

    let (rows, fleet) = timed_setup(
        reps,
        &mut setup_s,
        || {
            Ok((
                population(args.seed),
                serve::setup(work, &model, &ds, traced)?,
            ))
        },
        |(_, fleet)| fleet.shutdown(),
    )?;
    let plan = serve::plan(args.seed, keys, args.seconds, ds.n_users(), &mut digest);
    let served = serve::run(&fleet, &plan, &rows, keys, traced, &mut rec);
    fleet.shutdown();
    served?;
    drop(model);

    let plan = stream::plan(args.seed, keys, args.seconds, &ds, &mut digest);
    let streamer = timed_setup(
        reps,
        &mut setup_s,
        || stream::setup(work, &work.join("serve-ckpt"), &ds, traced),
        stream::StreamSetup::shutdown,
    )?;
    stream::run(streamer, &plan, &rows, work, traced, &mut rec)?;

    rec.e2e.push("setup_s", "s", setup_s, Some(reps));
    rec.e2e.push("peak_rss_mb", "MB", peak_rss_mb()?, None);
    Ok(Pass {
        rec,
        inputs: digest.finish(),
    })
}

/// Runs `make` `reps` times, tearing down all but the last result (outside
/// the clock), and adds the median set-up time to `setup_s`.
fn timed_setup<T>(
    reps: usize,
    setup_s: &mut f64,
    mut make: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let t = Instant::now();
        last = Some(make()?);
        times.push(t.elapsed().as_secs_f64());
    }
    *setup_s += median(&times).unwrap_or(0.0);
    Ok(last.expect("at least one set-up"))
}

/// `POPULATION` SC-preset users, seeded apart from the training set, as
/// request rows.
fn population(seed: u64) -> Vec<Vec<FieldRow>> {
    let ds: MultiFieldDataset = TopicModelConfig {
        n_users: POPULATION,
        seed: seed ^ 0x007a_111c,
        ..TopicModelConfig::sc()
    }
    .generate();
    (0..ds.n_users())
        .map(|u| {
            (0..ds.n_fields())
                .map(|k| {
                    let (ix, vs) = ds.user_field(u, k);
                    (ix.iter().map(|&i| u64::from(i)).collect(), vs.to_vec())
                })
                .collect()
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Provenance, checks and metric table of one pass.
fn print_run(args: &Args, p: &Pass, title: &str) {
    println!("{}", provenance(args, p.inputs));
    for (name, ok, detail) in &p.rec.tally.checks {
        println!(
            "check {:<34} {} ({detail})",
            name,
            if *ok { "pass" } else { "FAIL" }
        );
    }
    println!(
        "{}",
        report::table(&format!("{title} · workload {}", args.workload), &p.rec.e2e)
    );
}

/// Where and on what a number was measured, as one JSON line.
fn provenance(args: &Args, inputs: u64) -> String {
    use report::json_str;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                Some(
                    l.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"git_rev\": {}, \"dirty\": {}, \"source_digest\": \"{:016x}\", \"cpu\": {}, \"nproc\": {nproc}, \
         \"simd\": {}, \"pool_parallelism\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"input_digest\": \"{inputs:016x}\"}}}}",
        json_str(&fvae_obs::provenance::git_rev()),
        fvae_obs::provenance::git_dirty(),
        source_digest(),
        json_str(&cpu),
        json_str(fvae_tensor::simd::detected().name),
        fvae_pool::parallelism(),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
    )
}

/// Digest of the source the benchmark was built from (every file under
/// `crates/`, `third_party/` and `perfbench/`, plus the root manifests), so
/// a number can be tied to its code even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for root in ["crates", "third_party", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut d = Digest::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.bytes(f.to_string_lossy().as_bytes());
            d.bytes(&bytes);
        }
    }
    d.finish()
}
