//! `rcw_serve` — stand up a [`rcw_server::RcwServer`] over trained models.
//!
//! Builds the CiteSeer stand-in, trains one classifier per requested engine
//! deterministically, and serves witness queries until a `POST /shutdown`
//! arrives:
//!
//! ```text
//! rcw_serve [--addr 127.0.0.1:0] [--workers 4] [--queue 256]
//!           [--deadline-ms N] [--io-timeout-ms N]
//!           [--scale tiny|small|full] [--seed 7] [--k 2]
//!           [--model SPEC]...
//!           [--faults SPEC] [--fault-seed N]
//! ```
//!
//! `--model` is repeatable and takes a routing spec
//! `name=model[:scale[:workers]]`: it registers an engine under the
//! `/name/...` route prefix with its own model family (`appnp` | `gcn`),
//! dataset scale (default: `--scale`), and per-query session-worker count
//! (default 1), e.g. `--model gcn=gcn:tiny --model appnp=appnp:small:2`.
//!
//! The first `--model` is the default route (bare `/generate` goes to it).
//! Without any `--model` the server runs the single spec `default=appnp`.
//! The bound address is printed as the first stdout line
//! (`rcw-serve listening on http://HOST:PORT`), so callers binding port 0 can
//! discover the ephemeral port — the smoke test does exactly that. Every
//! startup failure likewise prints a first stdout line
//! (`rcw-serve: fatal: ...`, flushed) before exiting nonzero, so a spawning
//! test waiting for the announce sees a definite failure instead of silence.
//!
//! `--faults` installs a [`FaultPlan`] (spec grammar in [`rcw_server::faults`];
//! defaults to `RCW_FAULT_PLAN`/`RCW_FAULT_SEED` from the environment) across
//! the serving tier *and* every engine's repair path.
//!
//! Each route is one [`WitnessEngine`] over the full graph; paraRoboGExp's
//! fragmenting runs inside it when a spec asks for more than one session
//! worker. Routes build concurrently, one thread each, and register in
//! spec order.

use rcw_core::{RcwConfig, VerifiableModel, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_server::faults::FaultPlan;
use rcw_server::{RcwServer, ServedEngine, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// One engine to build and register: route name, model family, dataset
/// scale, and per-query session workers.
struct EngineSpec {
    name: String,
    model: String,
    scale: Scale,
    session_workers: usize,
}

struct Options {
    addr: String,
    workers: usize,
    queue_bound: usize,
    default_deadline: Option<Duration>,
    io_timeout: Option<Duration>,
    scale: Scale,
    specs: Vec<EngineSpec>,
    seed: u64,
    k: usize,
    fault_spec: Option<String>,
    fault_seed: u64,
}

fn parse_scale(text: &str) -> Result<Scale, String> {
    match text {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale '{other}'")),
    }
}

/// Parses one `--model` value, `name=model[:scale[:workers]]`; a missing
/// scale is taken from `--scale`.
fn parse_model_spec(text: &str, default_scale: Scale) -> Result<EngineSpec, String> {
    let shape_error = || format!("spec '{text}': expected name=model:scale[:workers]");
    let (name, rest) = text.split_once('=').ok_or_else(shape_error)?;
    let mut parts = rest.split(':');
    let model = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| format!("spec '{text}': missing model"))?;
    let scale = match parts.next() {
        Some(s) => parse_scale(s)?,
        None => default_scale,
    };
    let session_workers = match parts.next() {
        Some(w) => w
            .parse::<usize>()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("spec '{text}': bad session worker count '{w}'"))?,
        None => 1,
    };
    if parts.next().is_some() {
        return Err(shape_error());
    }
    Ok(EngineSpec {
        name: name.to_string(),
        model: model.to_string(),
        scale,
        session_workers,
    })
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_bound: 256,
        default_deadline: None,
        io_timeout: None,
        scale: Scale::Tiny,
        specs: Vec::new(),
        seed: 7,
        k: 2,
        fault_spec: None,
        fault_seed: 0,
    };
    let mut model_flags: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "invalid --workers".to_string())?
            }
            "--queue" => {
                opts.queue_bound = value("--queue")?
                    .parse()
                    .map_err(|_| "invalid --queue".to_string())?
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "invalid --deadline-ms".to_string())?;
                opts.default_deadline = Some(Duration::from_millis(ms));
            }
            "--io-timeout-ms" => {
                let ms: u64 = value("--io-timeout-ms")?
                    .parse()
                    .map_err(|_| "invalid --io-timeout-ms".to_string())?;
                opts.io_timeout = Some(Duration::from_millis(ms));
            }
            "--faults" => opts.fault_spec = Some(value("--faults")?),
            "--fault-seed" => {
                opts.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|_| "invalid --fault-seed".to_string())?
            }
            "--scale" => opts.scale = parse_scale(&value("--scale")?)?,
            "--model" => model_flags.push(value("--model")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?
            }
            "--k" => {
                opts.k = value("--k")?
                    .parse()
                    .map_err(|_| "invalid --k".to_string())?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: rcw_serve [--addr A] [--workers N] [--queue N] [--deadline-ms N] \
                            [--io-timeout-ms N] [--scale tiny|small|full] [--seed S] [--k K] \
                            [--model name=model[:scale[:workers]]]... \
                            [--faults SPEC] [--fault-seed N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if model_flags.is_empty() {
        model_flags.push("default=appnp".to_string());
    }
    for text in &model_flags {
        opts.specs.push(parse_model_spec(text, opts.scale)?);
    }
    Ok(opts)
}

fn serve_config(k: usize) -> RcwConfig {
    RcwConfig {
        k,
        local_budget: 2,
        candidate_hops: 2,
        max_expand_rounds: 3,
        sampled_disturbances: 6,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

/// Builds a single-engine route for a trained, leaked model.
fn leak_single<M: VerifiableModel>(
    graph: Arc<rcw_graph::Graph>,
    model: &'static M,
    cfg: RcwConfig,
    session_workers: usize,
    hook: Option<rcw_core::EngineFaultHook>,
) -> &'static dyn ServedEngine {
    let mut engine = WitnessEngine::new(graph, model, cfg).with_workers(session_workers);
    if let Some(hook) = hook {
        engine = engine.with_fault_hook(hook);
    }
    Box::leak(Box::new(engine))
}

/// Builds one engine from its spec. Models and engines live for the rest of
/// the process: leak them to get the `'static` borrows serving wants.
fn build_engine(
    spec: &EngineSpec,
    opts: &Options,
    faults: &Arc<FaultPlan>,
) -> Result<&'static dyn ServedEngine, String> {
    let ds = citeseer::build(spec.scale, opts.seed);
    eprintln!(
        "rcw-serve: route '{}': dataset {} (|V|={}, |E|={}), training {} (session workers {})...",
        spec.name,
        ds.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        spec.model,
        spec.session_workers,
    );
    let graph = Arc::new(ds.graph.clone());
    let cfg = serve_config(opts.k);
    // The fault plan reaches into the engine's repair path through the hook;
    // the empty plan installs nothing (the hook is the only per-repair cost).
    let hook = (!faults.is_empty()).then(|| faults.engine_hook());
    let engine: &'static dyn ServedEngine = match spec.model.as_str() {
        "appnp" => {
            let appnp = Box::leak(Box::new(ds.train_appnp(16, opts.seed)));
            leak_single(graph, appnp, cfg, spec.session_workers, hook)
        }
        "gcn" => {
            let gcn = Box::leak(Box::new(ds.train_gcn(16, opts.seed)));
            leak_single(graph, gcn, cfg, spec.session_workers, hook)
        }
        other => return Err(format!("unknown model '{other}' (use appnp or gcn)")),
    };
    Ok(engine)
}

/// Fatal startup error: announced on *stdout* (flushed) so a caller waiting
/// for the listening line sees a definite failure line instead of silence,
/// mirrored to stderr, then a nonzero exit.
fn fail(message: &str) -> ExitCode {
    use std::io::Write;
    println!("rcw-serve: fatal: {message}");
    let _ = std::io::stdout().flush();
    eprintln!("rcw-serve: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => return fail(&message),
    };

    let faults = match &opts.fault_spec {
        Some(spec) => match FaultPlan::parse(spec, opts.fault_seed) {
            Ok(plan) => Arc::new(plan),
            Err(message) => return fail(&message),
        },
        None => match FaultPlan::from_env() {
            Ok(plan) => Arc::new(plan),
            Err(message) => return fail(&message),
        },
    };
    if !faults.is_empty() {
        eprintln!("rcw-serve: fault plan active (seed {})", opts.fault_seed);
    }

    let mut config = ServerConfig {
        routes: Vec::new(),
        workers: opts.workers,
        queue_bound: opts.queue_bound,
        default_deadline: opts.default_deadline,
        io_timeout: opts.io_timeout.unwrap_or(Duration::from_secs(5)),
        faults: Arc::clone(&faults),
    };
    // Each route's dataset build and training are independent and seeded,
    // so the routes build side by side; they register in spec order, and
    // the first failure in spec order is the one reported.
    let built: Vec<_> = std::thread::scope(|scope| {
        let builds: Vec<_> = opts
            .specs
            .iter()
            .map(|spec| scope.spawn(|| build_engine(spec, &opts, &faults)))
            .collect();
        builds
            .into_iter()
            .map(|build| {
                build
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    });
    for (spec, engine) in opts.specs.iter().zip(built) {
        match engine {
            Ok(engine) => config = config.with_route(spec.name.clone(), engine),
            Err(message) => return fail(&message),
        }
    }
    if let Err(message) = config.validate() {
        return fail(&message);
    }

    let server = match RcwServer::bind(&opts.addr) {
        Ok(server) => server,
        Err(e) => return fail(&format!("cannot bind {}: {e}", opts.addr)),
    };
    // First stdout line is machine-readable: callers on port 0 parse the
    // ephemeral port from it.
    println!("rcw-serve listening on http://{}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    match server.serve_config(&config) {
        Ok(report) => {
            println!(
                "rcw-serve: shut down after {} requests over {} connections {:?} \
                 ({} shed, {} past deadline, {} worker restarts)",
                report.requests_total(),
                report.connections,
                report.requests_per_worker,
                report.overloaded,
                report.deadline_rejections,
                report.worker_restarts,
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("serve failed: {e}")),
    }
}
