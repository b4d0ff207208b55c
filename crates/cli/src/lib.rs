//! `incore-cli` — command-line front end in the spirit of OSACA:
//! analyze an assembly kernel on any of the three machine models, compare
//! against the LLVM-MCA-style baseline and the cycle-level simulator,
//! validate the predictors over the full corpus, and inspect the machines
//! themselves.
//!
//! ```text
//! incore-cli analyze <file.s> --arch <gcs|spr|genoa> [--balanced] [--mca] [--sim] [--timeline] [--trace] [--json]
//! incore-cli validate [--arch <machine>]... [--threads N] [--limit N] [--json] [--threshold X] [--max-divergent N] [--cache-dir D] [--volume N]
//! incore-cli explain <kernel> --arch <gcs|spr|genoa>
//! incore-cli lint [file.s] [--arch <gcs|spr|genoa>] [--machine-file <m.json>] [--json] [--strict] [--sim]
//! incore-cli machines
//! incore-cli ports --arch <gcs|spr|genoa>
//! incore-cli storebench --arch <gcs|spr|genoa> [--nt]
//! ```
//!
//! `analyze`, `validate`, and `storebench` additionally take
//! `--profile[=text|json|chrome]`, which turns on the `obs` recorder for
//! the run and emits the drained profile on stderr (or, for `chrome`, as
//! a trace file loadable in `about:tracing` / Perfetto) — the report on
//! stdout stays byte-identical to an unprofiled run.
//!
//! All error paths use the workspace [`engine::Error`] type, so `main` can
//! propagate with `?` and derive the process exit code from the error kind.

pub use engine::{Error, ErrorKind};

pub mod proto;
pub mod serve;
pub mod top;

/// Simulator configuration overrides shared by `analyze`, `validate`, and
/// `explain` (`--iterations`, `--warmup`). `None` means "keep the
/// [`exec::SimConfig`] default".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOverrides {
    pub iterations: Option<usize>,
    pub warmup: Option<usize>,
}

impl SimOverrides {
    /// Apply the overrides on top of a base configuration.
    pub fn apply(self, mut cfg: exec::SimConfig) -> exec::SimConfig {
        if let Some(iterations) = self.iterations {
            cfg.iterations = iterations;
        }
        if let Some(warmup) = self.warmup {
            cfg.warmup = warmup;
        }
        cfg
    }

    /// The resulting configuration over the defaults.
    pub fn config(self) -> exec::SimConfig {
        self.apply(exec::SimConfig::default())
    }
}

/// How `--profile` renders the drained [`obs::Profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// Per-stage span tree plus counter/histogram tables (the default).
    Text,
    /// The stable `obs` JSON (`{"counters":…,"histograms":…,"spans":…}`).
    Json,
    /// Chrome trace event format for `about:tracing` / Perfetto.
    Chrome,
}

/// Parse a `--profile` / `--profile=<mode>` flag occurrence.
pub fn parse_profile_mode(flag: &str) -> Result<ProfileMode, Error> {
    let rest = flag.strip_prefix("--profile").unwrap_or(flag);
    match rest.strip_prefix('=') {
        None | Some("text") => Ok(ProfileMode::Text),
        Some("json") => Ok(ProfileMode::Json),
        Some("chrome") => Ok(ProfileMode::Chrome),
        Some(other) => Err(Error::usage(format!(
            "unknown profile mode `{other}`; use text, json, or chrome"
        ))),
    }
}

/// Render a drained profile in the requested mode (what main sends to
/// stderr, or writes to the chrome trace file).
pub fn render_profile(profile: &obs::Profile, mode: ProfileMode) -> String {
    match mode {
        ProfileMode::Text => profile.render_text(),
        ProfileMode::Json => {
            let mut s = profile.to_json();
            s.push('\n');
            s
        }
        ProfileMode::Chrome => profile.to_chrome_trace(),
    }
}

/// Options for `incore-cli validate` — the full-corpus validation gate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValidateOpts {
    /// Machines to cover; empty = the paper's trio.
    pub sel: MachineSel,
    /// Worker threads; 0 = all available cores.
    pub threads: usize,
    /// Evaluate only the first N blocks (smoke runs).
    pub limit: Option<usize>,
    /// Emit the JSON [`engine::BatchReport`] instead of the text summary.
    pub json: bool,
    /// Fail (exit 1) when the in-core model's mean |RPE| exceeds this.
    pub threshold: Option<f64>,
    /// Fail (exit 1) when more than N records fire D002 (reference
    /// disagrees with every analytical model).
    pub max_divergent: Option<usize>,
    /// Reference-simulator configuration overrides.
    pub sim: SimOverrides,
    /// Record and emit an `obs` profile of the run (`--profile[=mode]`);
    /// also attaches the per-predictor `obs` summary to the JSON report.
    pub profile: Option<ProfileMode>,
    /// Persist evaluated records under this directory and replay them on
    /// identical reruns (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// Use a generated volume corpus of N blocks per machine instead of
    /// the standard validation grid (`--volume`).
    pub volume: Option<usize>,
}

/// What `analyze` should run and render, beyond the basic in-core model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyzeFlags {
    /// Use OSACA's equal-split port heuristic instead of the optimum.
    pub balanced: bool,
    /// Also run the LLVM-MCA-style baseline.
    pub mca: bool,
    /// Also run the cycle-level core simulator.
    pub sim: bool,
    /// Print the MCA timeline view (text mode only).
    pub timeline: bool,
    /// Print the simulator's pipeline trace (text mode only).
    pub trace: bool,
    /// Simulator configuration overrides.
    pub sim_cfg: SimOverrides,
    /// Record and emit an `obs` profile of the run (`--profile[=mode]`).
    pub profile: Option<ProfileMode>,
}

/// One machine named on the command line — either a registry model
/// (`--arch` family alias or `--model` registry id, both resolved to the
/// stable registry id at parse time) or a JSON machine file path.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineRef {
    /// A registry id (`neoverse-v2`, `zen2-rome`, …), already validated.
    Model(String),
    /// A `--machine-file` path, read and imported at resolution time.
    File(String),
}

/// The machine selection shared by every subcommand: the `--arch`,
/// `--model`, and `--machine-file` occurrences in command-line order.
/// What an empty selection means (paper trio, all registry models, or a
/// usage error) is the subcommand's choice, made at resolution time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineSel {
    pub refs: Vec<MachineRef>,
}

impl MachineSel {
    /// Convenience constructor for a single registry model.
    pub fn model(id: &str) -> MachineSel {
        MachineSel {
            refs: vec![MachineRef::Model(id.to_string())],
        }
    }

    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Build every selected machine, in selection order. Registry ids were
    /// validated at parse time; machine files are read and imported here
    /// (I/O errors and import failures carry the path as context).
    pub fn resolve(&self) -> Result<Vec<uarch::Machine>, Error> {
        self.refs.iter().map(resolve_ref).collect()
    }

    /// [`MachineSel::resolve`], defaulting an empty selection to the
    /// paper's trio — the historical grid of `validate`, `storebench`,
    /// and the machine lints.
    pub fn resolve_or_trio(&self) -> Result<Vec<uarch::Machine>, Error> {
        if self.is_empty() {
            return Ok(uarch::all_machines());
        }
        self.resolve()
    }

    /// The single reference a one-machine resolution would use: a machine
    /// file wins over a registry model — the historical `--machine-file`
    /// override — and within a kind the last occurrence wins. The `serve`
    /// submit path uses this to key its caches without building the
    /// machine.
    pub fn chosen(&self) -> Result<&MachineRef, Error> {
        let last_file = self
            .refs
            .iter()
            .rev()
            .find(|r| matches!(r, MachineRef::File(_)));
        last_file
            .or_else(|| self.refs.last())
            .ok_or_else(|| Error::usage("--arch, --model, or --machine-file is required"))
    }

    /// Resolve to exactly one machine for the single-machine subcommands
    /// (`analyze`, `explain`, `export`, `ports`).
    pub fn resolve_one(&self) -> Result<uarch::Machine, Error> {
        resolve_ref(self.chosen()?)
    }
}

fn resolve_ref(r: &MachineRef) -> Result<uarch::Machine, Error> {
    match r {
        MachineRef::Model(id) => uarch::registry::machine(id)
            .ok_or_else(|| Error::usage(format!("unknown registry id `{id}`"))),
        MachineRef::File(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| Error::io(path, &e))?;
            uarch::Machine::from_json(&json).map_err(|e| Error::from(e).with_context(path.as_str()))
        }
    }
}

/// Options for `incore-cli lint` — the static-analysis driver.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintOpts {
    /// Assembly file to lint (kernel rules + predictor divergence).
    pub path: Option<String>,
    /// Machines to lint, or to lint the kernel against. A machine file
    /// takes precedence over a registry model when resolving the kernel's
    /// machine.
    pub sel: MachineSel,
    pub json: bool,
    /// Emit a SARIF 2.1.0 report instead of text/JSON.
    pub sarif: bool,
    pub strict: bool,
    pub sim: bool,
    /// Run the machine-model admission gate (rules M008–M010) over the
    /// selected machines (or all three built-ins).
    pub admission: bool,
    /// Lint every generated corpus kernel of the selected machines.
    pub corpus: bool,
    /// Rule codes promoted to error severity.
    pub deny: Vec<String>,
    /// Rule codes demoted to info severity (never fail the run).
    pub allow: Vec<String>,
    /// Baseline file: findings whose fingerprints it lists are suppressed.
    pub baseline: Option<String>,
    /// Write the current findings' fingerprints to this baseline file.
    pub write_baseline: Option<String>,
    /// Worker threads for `--corpus`; 0 = all cores (output identical).
    pub threads: usize,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Analyze {
        path: String,
        /// Machine selection; exactly one machine is resolved.
        sel: MachineSel,
        flags: AnalyzeFlags,
        /// Emit a one-record [`engine::BatchReport`] instead of text.
        json: bool,
    },
    /// Validate the predictors over the kernel corpus (Fig. 3 pipeline).
    Validate(ValidateOpts),
    /// List the machine registry (id, lineage, key parameters).
    Machines {
        json: bool,
    },
    /// Run the static diagnostics over a kernel, a machine file, the
    /// built-in machine models, or the whole corpus.
    Lint(LintOpts),
    /// Export a machine model as a JSON machine file.
    Export {
        sel: MachineSel,
    },
    Ports {
        sel: MachineSel,
    },
    StoreBench {
        /// Machines to sweep; empty = the paper's trio.
        sel: MachineSel,
        nt: bool,
        /// Emit the versioned JSON [`memhier::storebench::StoreSweepReport`].
        json: bool,
        /// Rayon pool size for the sweep; `None` = the default pool.
        threads: Option<usize>,
        /// Record and emit an `obs` profile of the sweep.
        profile: Option<ProfileMode>,
    },
    /// Run the long-lived analysis server (newline-delimited JSON over
    /// TCP; see [`proto`] and [`serve`]).
    Serve(serve::ServeOpts),
    /// Poll a running server and render a live terminal dashboard
    /// (see [`top`]).
    Top(top::TopOpts),
    /// Render the bottleneck-attribution report for one corpus kernel:
    /// which port, dependency chain, or front-end limit bounds it, per
    /// predictor, and why the predictors disagree when they do.
    Explain {
        /// Corpus kernel name (e.g. `triad`, `jacobi3d27`).
        kernel: String,
        /// Machine selection; exactly one machine is resolved.
        sel: MachineSel,
        /// Reference-simulator configuration overrides.
        sim: SimOverrides,
    },
    Help,
}

/// Resolve a machine name to its stable registry id: the family aliases
/// the CLI has always taken (`gcs`/`grace`, `spr`/`sapphire-rapids`,
/// `genoa`/`zen-4`, the µarch names) plus every id in
/// [`uarch::registry`]. This is the single name-resolution path behind
/// `--arch` and `--model` on every subcommand, so an unknown name fails
/// with the same message everywhere.
pub fn resolve_model_id(name: &str) -> Result<&'static str, Error> {
    let lower = name.to_ascii_lowercase();
    let id = match lower.as_str() {
        "gcs" | "grace" | "neoversev2" | "v2" => "neoverse-v2",
        "spr" | "sapphire-rapids" | "sapphirerapids" | "goldencove" => "golden-cove",
        "genoa" | "zen-4" => "zen4",
        other => other,
    };
    match uarch::registry::find(id) {
        Some(entry) => Ok(entry.id),
        None => Err(Error::usage(format!(
            "unknown machine `{name}`; use gcs, spr, genoa, or a registry id \
             (see `incore-cli machines`)"
        ))),
    }
}

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, Error> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "machines" => {
            let mut json = false;
            for a in it {
                match a.as_str() {
                    "--json" => json = true,
                    other => return Err(Error::usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Machines { json })
        }
        "export" => {
            let sel = required_sel(&mut it)?;
            Ok(Command::Export { sel })
        }
        "ports" => {
            let sel = required_sel(&mut it)?;
            Ok(Command::Ports { sel })
        }
        "storebench" => {
            let mut sel = MachineSel::default();
            let (mut nt, mut json) = (false, false);
            let mut threads = None;
            let mut profile = None;
            while let Some(a) = it.next() {
                if machine_flag(&mut sel, a.as_str(), &mut it)? {
                    continue;
                }
                match a.as_str() {
                    "--nt" => nt = true,
                    "--json" => json = true,
                    "--threads" => threads = Some(next_value(&mut it, "--threads")?),
                    f if is_profile_flag(f) => profile = Some(parse_profile_mode(f)?),
                    other => return Err(Error::usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::StoreBench {
                sel,
                nt,
                json,
                threads,
                profile,
            })
        }
        "serve" => {
            let mut opts = serve::ServeOpts::default();
            while let Some(a) = it.next() {
                if machine_flag(&mut opts.sel, a.as_str(), &mut it)? {
                    continue;
                }
                match a.as_str() {
                    "--addr" => opts.addr = next_value(&mut it, "--addr")?,
                    "--threads" => opts.threads = next_value(&mut it, "--threads")?,
                    "--queue" => opts.queue = next_value(&mut it, "--queue")?,
                    "--cache" => opts.cache = next_value(&mut it, "--cache")?,
                    "--max-request-bytes" => {
                        opts.max_request_bytes = next_value(&mut it, "--max-request-bytes")?
                    }
                    "--throttle-ms" => opts.throttle_ms = next_value(&mut it, "--throttle-ms")?,
                    "--cache-dir" => opts.cache_dir = Some(next_value(&mut it, "--cache-dir")?),
                    "--slow-ms" => opts.slow_ms = next_value(&mut it, "--slow-ms")?,
                    "--trace" => opts.trace = Some(next_value(&mut it, "--trace")?),
                    other => return Err(Error::usage(format!("unknown flag `{other}`"))),
                }
            }
            if opts.queue == 0 {
                return Err(Error::usage("--queue must be at least 1"));
            }
            Ok(Command::Serve(opts))
        }
        "top" => {
            let mut opts = top::TopOpts::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--interval-ms" => opts.interval_ms = next_value(&mut it, "--interval-ms")?,
                    "--count" => opts.count = next_value(&mut it, "--count")?,
                    flag if flag.starts_with("--") => {
                        return Err(Error::usage(format!("unknown flag `{flag}`")))
                    }
                    addr if opts.addr.is_empty() => opts.addr = addr.to_string(),
                    extra => return Err(Error::usage(format!("unexpected argument `{extra}`"))),
                }
            }
            if opts.addr.is_empty() {
                return Err(Error::usage(
                    "top needs the server address (host:port, as printed by serve)",
                ));
            }
            if opts.interval_ms == 0 {
                return Err(Error::usage("--interval-ms must be at least 1"));
            }
            Ok(Command::Top(opts))
        }
        "explain" => {
            let mut kernel = None;
            let mut sel = MachineSel::default();
            let mut sim = SimOverrides::default();
            while let Some(a) = it.next() {
                if machine_flag(&mut sel, a.as_str(), &mut it)? {
                    continue;
                }
                match a.as_str() {
                    "--iterations" => sim.iterations = Some(next_value(&mut it, "--iterations")?),
                    "--warmup" => sim.warmup = Some(next_value(&mut it, "--warmup")?),
                    flag if flag.starts_with("--") => {
                        return Err(Error::usage(format!("unknown flag `{flag}`")))
                    }
                    k if kernel.is_none() => kernel = Some(k.to_string()),
                    extra => return Err(Error::usage(format!("unexpected argument `{extra}`"))),
                }
            }
            let kernel = kernel.ok_or_else(|| Error::usage("missing kernel name"))?;
            if sel.is_empty() {
                return Err(Error::usage("--arch (or --model) is required"));
            }
            Ok(Command::Explain { kernel, sel, sim })
        }
        "validate" => {
            let mut opts = ValidateOpts::default();
            while let Some(a) = it.next() {
                if machine_flag(&mut opts.sel, a.as_str(), &mut it)? {
                    continue;
                }
                match a.as_str() {
                    "--threads" => opts.threads = next_value(&mut it, "--threads")?,
                    "--limit" => opts.limit = Some(next_value(&mut it, "--limit")?),
                    "--json" => opts.json = true,
                    "--threshold" => opts.threshold = Some(next_value(&mut it, "--threshold")?),
                    "--max-divergent" => {
                        opts.max_divergent = Some(next_value(&mut it, "--max-divergent")?)
                    }
                    "--iterations" => {
                        opts.sim.iterations = Some(next_value(&mut it, "--iterations")?)
                    }
                    "--warmup" => opts.sim.warmup = Some(next_value(&mut it, "--warmup")?),
                    "--cache-dir" => opts.cache_dir = Some(next_value(&mut it, "--cache-dir")?),
                    "--volume" => opts.volume = Some(next_value(&mut it, "--volume")?),
                    f if is_profile_flag(f) => opts.profile = Some(parse_profile_mode(f)?),
                    other => return Err(Error::usage(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Validate(opts))
        }
        "lint" => {
            let mut opts = LintOpts::default();
            while let Some(a) = it.next() {
                if machine_flag(&mut opts.sel, a.as_str(), &mut it)? {
                    continue;
                }
                match a.as_str() {
                    "--json" => opts.json = true,
                    "--sarif" => opts.sarif = true,
                    "--strict" => opts.strict = true,
                    "--sim" => opts.sim = true,
                    "--admission" => opts.admission = true,
                    "--corpus" => opts.corpus = true,
                    "--deny" => opts.deny.push(next_value(&mut it, "--deny")?),
                    "--allow" => opts.allow.push(next_value(&mut it, "--allow")?),
                    "--baseline" => opts.baseline = Some(next_value(&mut it, "--baseline")?),
                    "--write-baseline" => {
                        opts.write_baseline = Some(next_value(&mut it, "--write-baseline")?)
                    }
                    "--threads" => opts.threads = next_value(&mut it, "--threads")?,
                    flag if flag.starts_with("--") => {
                        return Err(Error::usage(format!("unknown flag `{flag}`")))
                    }
                    p if opts.path.is_none() => opts.path = Some(p.to_string()),
                    extra => return Err(Error::usage(format!("unexpected argument `{extra}`"))),
                }
            }
            if opts.path.is_some() && opts.sel.is_empty() {
                return Err(Error::usage(
                    "--arch, --model, or --machine-file is required when linting a kernel",
                ));
            }
            if opts.json && opts.sarif {
                return Err(Error::usage("--json and --sarif are mutually exclusive"));
            }
            Ok(Command::Lint(opts))
        }
        "analyze" => {
            let mut path = None;
            let mut sel = MachineSel::default();
            let mut flags = AnalyzeFlags::default();
            let mut json = false;
            while let Some(a) = it.next() {
                if machine_flag(&mut sel, a.as_str(), &mut it)? {
                    continue;
                }
                match a.as_str() {
                    "--balanced" => flags.balanced = true,
                    "--mca" => flags.mca = true,
                    "--sim" => flags.sim = true,
                    "--timeline" => flags.timeline = true,
                    "--trace" => flags.trace = true,
                    "--json" => json = true,
                    "--iterations" => {
                        flags.sim_cfg.iterations = Some(next_value(&mut it, "--iterations")?)
                    }
                    "--warmup" => flags.sim_cfg.warmup = Some(next_value(&mut it, "--warmup")?),
                    f if is_profile_flag(f) => flags.profile = Some(parse_profile_mode(f)?),
                    flag if flag.starts_with("--") => {
                        return Err(Error::usage(format!("unknown flag `{flag}`")))
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    extra => return Err(Error::usage(format!("unexpected argument `{extra}`"))),
                }
            }
            let path = path.ok_or_else(|| Error::usage("missing input file"))?;
            if sel.is_empty() {
                return Err(Error::usage("--arch (or --model) is required"));
            }
            Ok(Command::Analyze {
                path,
                sel,
                flags,
                json,
            })
        }
        other => Err(Error::usage(format!(
            "unknown command `{other}`; try `help`"
        ))),
    }
}

fn is_profile_flag(flag: &str) -> bool {
    flag == "--profile" || flag.starts_with("--profile=")
}

/// The shared machine-selection parser: consume one `--arch`, `--model`,
/// or `--machine-file` occurrence into `sel`. Returns `Ok(false)` when the
/// flag is not a machine flag (so the subcommand's own loop handles it),
/// which is what lets every subcommand accept the same three flags with
/// the same validation and the same error messages.
fn machine_flag<'a>(
    sel: &mut MachineSel,
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<bool, Error> {
    match flag {
        "--arch" | "--model" => {
            let v = it
                .next()
                .ok_or_else(|| Error::usage(format!("{flag} needs a value")))?;
            let id = resolve_model_id(v)?;
            sel.refs.push(MachineRef::Model(id.to_string()));
            Ok(true)
        }
        "--machine-file" => {
            let v = it
                .next()
                .ok_or_else(|| Error::usage("--machine-file needs a path"))?;
            sel.refs.push(MachineRef::File(v.to_string()));
            Ok(true)
        }
        _ => Ok(false),
    }
}

fn next_value<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, Error> {
    let v = it
        .next()
        .ok_or_else(|| Error::usage(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| Error::usage(format!("invalid value `{v}` for {flag}")))
}

/// Argument tail for the single-machine subcommands that take nothing but
/// a machine selection (`export`, `ports`).
fn required_sel<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<MachineSel, Error> {
    let mut sel = MachineSel::default();
    while let Some(a) = it.next() {
        if machine_flag(&mut sel, a.as_str(), it)? {
            continue;
        }
        return Err(Error::usage(format!("unknown flag `{a}`")));
    }
    if sel.is_empty() {
        return Err(Error::usage("--arch (or --model) is required"));
    }
    Ok(sel)
}

/// The help text.
pub const USAGE: &str = "\
incore-cli — in-core performance modeling of Grace, Sapphire Rapids, and Genoa

Every subcommand selects machines the same way:
      --arch <machine>     a family alias (gcs, spr, genoa, or the µarch names)
      --model <id>         a machine-registry id (see `incore-cli machines`)
      --machine-file <file.json>  an edited/exported JSON machine file

USAGE:
  incore-cli analyze <file.s> --arch <machine> [flags]
      --balanced   use OSACA's equal-split port heuristic instead of the optimum
      --mca        also run the LLVM-MCA-style baseline
      --sim        also run the cycle-level core simulator
      --timeline   print the MCA timeline view
      --trace      print the simulator's pipeline trace
      --json       emit a one-record JSON report (same schema as validate)
      --iterations <n>     simulator measured iterations (default 200)
      --warmup <n>         simulator warm-up iterations (default 50)
      --profile[=mode]     obs profile on stderr (text|json) or trace.chrome.json (chrome)
  incore-cli validate [flags]         validate the predictors over the kernel corpus
      --arch/--model/--machine-file   restrict the grid (repeatable; default: the
                           paper's three machines)
      --threads <n>        worker threads (0 = all cores); results are identical
      --limit <n>          only the first n corpus blocks (smoke runs)
      --json               emit the JSON BatchReport instead of the text summary
      --threshold <x>      exit 1 if the in-core model's mean |RPE| exceeds x
      --max-divergent <n>  exit 1 if more than n records fire D002
      --iterations / --warmup   as for analyze (reference simulator)
      --profile[=mode]     obs profile (also adds the per-predictor obs block to --json)
      --cache-dir <dir>    persist evaluated records; identical reruns replay from disk
      --volume <n>         generated volume corpus of n blocks per machine (the first
                           grid-sized prefix reproduces the standard corpus)
  incore-cli explain <kernel> --arch <machine>   bottleneck-attribution report for a
      corpus kernel: the binding port/dependency/front-end bound per predictor and
      why the predictors disagree (divergence rules D001/D002, attribution rule D003)
      --iterations / --warmup   as for analyze (reference simulator)
  incore-cli lint [file.s] [flags]    run the static diagnostics (rule codes K*, M*, D*, S*)
      --arch/--model       machine for kernel lints / machines to lint (repeatable)
      --machine-file <file.json>  lint an edited machine file (also used for kernel lints)
      --sim        include the cycle-level simulator in the divergence check
      --admission  run the machine-model admission gate (M008-M010): the machine's
                   tables must cover every instruction form its corpus decodes to;
                   with no selection, every registry model is gated
      --corpus     lint every generated corpus kernel (K001-K010), in parallel
      --threads <n>        worker threads for --corpus (output identical at any count)
      --deny <CODE>        promote a rule to error severity (repeatable)
      --allow <CODE>       demote a rule to info severity (repeatable; wins over --deny)
      --baseline <file>    suppress findings recorded in a baseline file
      --write-baseline <file>  record current findings as the baseline, exit 0
      --json       emit a machine-readable JSON report
      --sarif      emit a SARIF 2.1.0 report (for code-scanning upload)
      --strict     treat warnings as errors (nonzero exit)
      with no file and no selection, the paper's three models are linted
  incore-cli serve [flags]            long-running analysis server: newline-delimited
      JSON requests over TCP, answered from a sharded worker pool with request
      coalescing, a bounded LRU response cache, and explicit overload backpressure
      --addr <host:port>   bind address (default 127.0.0.1:0; the port is printed)
      --threads <n>        worker shards (0 = all cores)
      --queue <n>          per-shard queue bound; a full shard answers `overloaded`
      --cache <n>          response/kernel/machine LRU capacity (entries)
      --max-request-bytes <n>  reject request frames larger than this
      --throttle-ms <n>    artificial per-job delay (load testing)
      --cache-dir <dir>    persist responses on disk (content-addressed, bounded
                           by --cache entries, replayed across restarts)
      --arch/--model/--machine-file   default machine for requests that name none
      --slow-ms <n>        journal a warn event for requests slower than this
      --trace <file>       record per-request span trees to a Chrome trace file
      wire protocol: {\"type\":\"analyze\",\"id\":1,\"asm\":\"...\",\"arch\":\"spr\"} in,
      {\"id\":1,\"ok\":true,\"report\":<analyze --json report>} out; also `ping`,
      `metrics` (versioned counters/latency JSON), `events` (journal drain),
      and `shutdown` (graceful drain); an HTTP GET on the same port answers
      a Prometheus text scrape
  incore-cli top <host:port> [flags]  live dashboard over a running serve
      instance: totals, 10s/1m/5m rolling rates, service-time quantiles,
      cache/queue state, and the event-journal tail, re-rendered per tick
      --interval-ms <n>    poll period (default 1000)
      --count <n>          render n frames then exit (default 0 = until drain)
  incore-cli machines [--json]        list the machine registry: id, lineage
      (base model + composition deltas), and key parameters
  incore-cli export --arch <machine>  dump a machine model as an editable JSON file
  incore-cli ports --arch <machine>   render the port model (Fig. 1)
  incore-cli storebench [flags]       store-only traffic-ratio sweep (Fig. 4)
      --arch/--model/--machine-file   restrict the sweep (repeatable; default: the
                           paper's three machines)
      --nt                 non-temporal stores instead of standard write-allocate
      --json               emit the versioned JSON StoreSweepReport
      --threads <n>        rayon pool size; output is identical at every count
      --profile[=mode]     obs profile of the sweep (text|json|chrome)
";

/// Render `incore-cli storebench`: the Fig. 4 store-only sweep over one
/// or more machines, as the original text table or the versioned JSON
/// [`memhier::storebench::StoreSweepReport`].
pub fn run_storebench(machines: &[uarch::Machine], nt: bool, json: bool) -> String {
    use std::fmt::Write;
    let kind = if nt {
        memhier::StoreKind::NonTemporal
    } else {
        memhier::StoreKind::Standard
    };
    let counts: Vec<Vec<u32>> = machines
        .iter()
        .map(|m| {
            (1..=m.cores)
                .filter(|&n| n == 1 || n % 4 == 0 || n == m.cores)
                .collect()
        })
        .collect();
    let report = memhier::storebench::sweep_report(
        machines,
        &counts,
        kind,
        memhier::StreamConfig::default(),
    );
    if json {
        return report.to_json();
    }
    let mut s = String::new();
    for (i, m) in report.machines.iter().enumerate() {
        if report.machines.len() > 1 {
            if i > 0 {
                s.push('\n');
            }
            let _ = writeln!(s, "{} ({})", m.chip, m.arch);
        }
        let _ = writeln!(s, "cores  traffic/stored");
        for p in &m.points {
            let _ = writeln!(s, "{:>5}  {:.3}", p.cores, p.ratio);
        }
    }
    s
}

/// Schema version of the `machines --json` registry listing.
pub const MACHINES_SCHEMA_VERSION: u32 = 1;

/// Render `incore-cli machines [--json]`: the machine registry in its
/// deterministic order — id, name/chip, lineage (base model plus the
/// composition deltas applied on top), and the key parameters. The JSON
/// form is the byte-stable listing the golden snapshot fixture and the CI
/// artifact pin.
pub fn run_machines(json: bool) -> String {
    use std::fmt::Write;
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut s = String::new();
    if json {
        s.push_str(&format!(
            "{{\"schema_version\":{MACHINES_SCHEMA_VERSION},\"models\":["
        ));
        for (i, entry) in uarch::registry::entries().iter().enumerate() {
            let b = (entry.build)();
            let m = b.clone().build();
            if i > 0 {
                s.push(',');
            }
            let deltas: Vec<String> = b
                .deltas()
                .iter()
                .map(|d| format!("\"{}\"", esc(d)))
                .collect();
            let _ = write!(
                s,
                "{{\"id\":\"{}\",\"name\":\"{}\",\"chip\":\"{}\",\"part\":\"{}\",\
                 \"base\":\"{}\",\"deltas\":[{}],\"summary\":\"{}\",\
                 \"ports\":{},\"dispatch_width\":{},\"rob_size\":{},\"sched_size\":{},\
                 \"cores\":{},\"numa_domains\":{},\"simd_width_bits\":{},\
                 \"max_isa_vec_bits\":{},\"base_freq_ghz\":{},\"max_freq_ghz\":{},\
                 \"mem_type\":\"{}\",\"theor_bw_gbs\":{}}}",
                esc(m.id),
                esc(m.name),
                esc(m.chip),
                esc(m.part),
                esc(b.base()),
                deltas.join(","),
                esc(entry.summary),
                m.port_model.num_ports(),
                m.dispatch_width,
                m.rob_size,
                m.sched_size,
                m.cores,
                m.numa_domains,
                m.simd_width_bits,
                m.max_isa_vec_bits,
                m.base_freq_ghz,
                m.max_freq_ghz,
                esc(m.memory.mem_type),
                m.memory.theor_bw_gbs,
            );
        }
        s.push_str("]}\n");
        return s;
    }
    for entry in uarch::registry::entries() {
        let b = (entry.build)();
        let m = b.clone().build();
        let _ = writeln!(
            s,
            "{:<20} {} [{}] — {}",
            m.id, m.name, m.chip, entry.summary
        );
        let _ = writeln!(
            s,
            "    {} ports, ROB {}, sched {}, {}-wide dispatch, SIMD {} b (ISA max {} b), \
             {} cores @ {} GHz, {} {} GB/s",
            m.port_model.num_ports(),
            m.rob_size,
            m.sched_size,
            m.dispatch_width,
            m.simd_width_bits,
            m.max_isa_vec_bits,
            m.cores,
            m.base_freq_ghz,
            m.memory.mem_type,
            m.memory.theor_bw_gbs,
        );
        if b.deltas().is_empty() {
            let _ = writeln!(s, "    base model (paper family)");
        } else {
            let _ = writeln!(s, "    base: {} + {}", b.base(), b.deltas().join("; "));
        }
    }
    s
}

/// Execute a parsed command against assembly text already read from disk
/// (separated from `main` for testability). Returns the rendered output.
pub fn run_analyze(
    machine: &uarch::Machine,
    asm: &str,
    flags: AnalyzeFlags,
) -> Result<String, Error> {
    use std::fmt::Write;
    let kernel = isa::parse_kernel(asm, machine.isa)?;
    let opts = incore::Options {
        assignment: if flags.balanced {
            incore::PortAssignment::Balanced
        } else {
            incore::PortAssignment::Optimal
        },
        frontend: true,
    };
    let analysis = incore::analyze_with(machine, &kernel, opts);
    let mut out = incore::Report::new(machine, &analysis).render();
    if flags.sim {
        let sim = exec::simulate(machine, &kernel, flags.sim_cfg.config()).cycles_per_iter;
        let _ = writeln!(
            out,
            "simulator:                        {sim:>7.2} cy/iter (RPE {:+.1}%)",
            (sim - analysis.prediction) / sim.max(1e-12) * 100.0
        );
    }
    if flags.mca {
        let m = mca::predict(machine, &kernel).cycles_per_iter;
        let _ = writeln!(out, "LLVM-MCA-style baseline:          {m:>7.2} cy/iter");
    }
    if flags.timeline {
        let _ = writeln!(out, "\n{}", mca::timeline::render(machine, &kernel, 2));
    }
    if flags.trace {
        let _ = writeln!(out, "\n{}", exec::trace::render(machine, &kernel, 2));
    }
    Ok(out)
}

/// Evaluate one parsed kernel through the same [`engine::evaluate_block`]
/// path as `validate` and wrap it in a one-record
/// [`engine::BatchReport`] with **zeroed timings** — fully deterministic
/// for a given (machine, label, kernel, flags), which is what lets the
/// server coalesce identical requests and replay cached responses
/// byte-for-byte. The measured timings are returned alongside for
/// callers that want to stamp them in ([`run_analyze_json`]).
pub fn analyze_report(
    machine: &uarch::Machine,
    label: &str,
    kernel: &isa::Kernel,
    flags: AnalyzeFlags,
) -> (engine::BatchReport, engine::BlockTimings) {
    let model: Box<dyn uarch::Predictor> = if flags.balanced {
        Box::new(incore::InCoreModel::balanced())
    } else {
        Box::new(incore::InCoreModel::new())
    };
    let mut analytical: Vec<Box<dyn uarch::Predictor>> = vec![model];
    if flags.mca {
        analytical.push(Box::new(mca::McaBaseline));
    }
    let sim = exec::CoreSimulator {
        config: flags.sim_cfg.config(),
    };
    let reference: Option<&dyn uarch::Predictor> = if flags.sim { Some(&sim) } else { None };
    let refs: Vec<&dyn uarch::Predictor> = analytical.iter().map(|b| b.as_ref()).collect();
    let (record, block_timings) = engine::evaluate_block_timed(
        machine,
        kernel,
        engine::BlockLabels {
            kernel: label,
            compiler: "",
            opt: "",
        },
        &refs,
        reference,
    );
    let report = engine::BatchReport::from_records(
        vec![machine.name.to_string()],
        refs.iter().map(|p| p.name().to_string()).collect(),
        reference.map(|r| r.name().to_string()),
        vec![record],
        engine::CacheStats::default(),
    );
    (report, block_timings)
}

/// The deterministic one-record JSON report for an assembly string: what
/// a served `analyze` response embeds, and `analyze --json` minus the
/// wall-clock timing stamp. Newline-terminated.
pub fn analyze_report_json(
    machine: &uarch::Machine,
    label: &str,
    asm: &str,
    flags: AnalyzeFlags,
) -> Result<String, Error> {
    let kernel =
        isa::parse_kernel(asm, machine.isa).map_err(|e| Error::from(e).with_context(label))?;
    let (report, _) = analyze_report(machine, label, &kernel, flags);
    let mut out = report.to_json();
    out.push('\n');
    Ok(out)
}

/// `analyze --json`: the [`analyze_report`] record with the run's
/// measured timings stamped in, so scripted consumers see a single
/// schema whichever subcommand produced it.
pub fn run_analyze_json(
    machine: &uarch::Machine,
    label: &str,
    asm: &str,
    flags: AnalyzeFlags,
) -> Result<String, Error> {
    let wall_start = std::time::Instant::now();
    let kernel =
        isa::parse_kernel(asm, machine.isa).map_err(|e| Error::from(e).with_context(label))?;
    let (mut report, block_timings) = analyze_report(machine, label, &kernel, flags);
    report.timings = engine::RunTimings {
        wall_ms: wall_start.elapsed().as_nanos() as f64 / 1e6,
        parse_ms: 0.0,
        reference_ms: block_timings.reference_ns as f64 / 1e6,
        predictors_ms: block_timings.predictors_ns as f64 / 1e6,
        cache_ms: 0.0,
    };
    let mut out = report.to_json();
    out.push('\n');
    Ok(out)
}

/// Result of `incore-cli validate`: the rendered report plus any gate
/// failures (printed to stderr; each makes the exit code nonzero).
pub struct ValidateOutcome {
    pub output: String,
    pub gate_failures: Vec<Error>,
}

/// Run the corpus validation pipeline and apply the CI gates.
pub fn run_validate(opts: &ValidateOpts) -> Result<ValidateOutcome, Error> {
    let mut session = engine::Session::new()
        .threads(opts.threads)
        .sim_config(opts.sim.config())
        .profile(opts.profile.is_some());
    if !opts.sel.is_empty() {
        session = session.machines(opts.sel.resolve()?);
    }
    if let Some(limit) = opts.limit {
        session = session.limit(limit);
    }
    if let Some(volume) = opts.volume {
        session = session.volume(volume);
    }
    if let Some(dir) = &opts.cache_dir {
        session = session.cache_dir(dir);
    }
    let report = session.run()?;
    let mut gate_failures = Vec::new();
    if let Some(limit) = opts.threshold {
        let mean = report.summary("incore").map(|s| s.mean_abs).unwrap_or(0.0);
        if mean > limit {
            gate_failures.push(Error::threshold("mean |RPE| (incore)", mean, limit));
        }
    }
    if let Some(max) = opts.max_divergent {
        if report.d002_records > max {
            gate_failures.push(Error::threshold(
                "records with D002 divergence",
                report.d002_records as f64,
                max as f64,
            ));
        }
    }
    let output = if opts.json {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        report.render_text()
    };
    Ok(ValidateOutcome {
        output,
        gate_failures,
    })
}

/// The attribution margin: the top in-core bound must clear the
/// runner-up by this factor to count as the *dominating* resource. Inside
/// the margin the bounds are effectively tied, the report says so, and a
/// divergent kernel additionally fires `D003`
/// (divergence-without-attribution).
pub const ATTRIBUTION_MARGIN: f64 = 1.05;

/// `incore-cli explain <kernel> --arch <a>` — the bottleneck-attribution
/// report for one corpus kernel: run all three predictors on the kernel's
/// first corpus variant, rank the in-core bounds (port pressure,
/// loop-carried dependency, front-end dispatch), name the binding
/// resource, and explain disagreement through the `diag` divergence rules
/// (`D001`/`D002`) plus the attribution rule `D003` when the predictors
/// diverge and no bound dominates.
pub fn run_explain(
    machine: &uarch::Machine,
    kernel_name: &str,
    sim_cfg: SimOverrides,
) -> Result<String, Error> {
    use std::fmt::Write;
    let variants = kernels::variants_for(machine.arch);
    // Corpus kernel names are display names ("STREAM triad", "Jacobi 3D
    // 27pt"); match case-insensitively ignoring spaces/punctuation, and
    // accept a unique substring ("jacobi3d27", "schoenauer").
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect::<String>()
    };
    let want = norm(kernel_name);
    let exact = variants.iter().find(|v| norm(v.kernel.name()) == want);
    let variant = match exact {
        Some(v) => v,
        None => {
            let subs: Vec<&kernels::Variant> = variants
                .iter()
                .filter(|v| !want.is_empty() && norm(v.kernel.name()).contains(&want))
                .collect();
            let mut sub_names: Vec<&str> = subs.iter().map(|v| v.kernel.name()).collect();
            sub_names.dedup();
            match sub_names.len() {
                1 => subs[0],
                0 => {
                    let mut names: Vec<&str> = variants.iter().map(|v| v.kernel.name()).collect();
                    names.dedup();
                    return Err(Error::usage(format!(
                        "unknown kernel `{kernel_name}` for {}; corpus kernels: {}",
                        machine.name,
                        names.join(", ")
                    )));
                }
                _ => {
                    return Err(Error::usage(format!(
                        "ambiguous kernel `{kernel_name}`; matches: {}",
                        sub_names.join(", ")
                    )))
                }
            }
        }
    };
    let kernel = kernels::generate_kernel(variant, machine);
    let analysis = incore::analyze_with(machine, &kernel, incore::Options::default());
    let mca_pred = mca::predict(machine, &kernel);
    let sim_pred = exec::simulate(machine, &kernel, sim_cfg.config());
    let (mca_cy, sim_cy) = (mca_pred.cycles_per_iter, sim_pred.cycles_per_iter);

    // Rank the in-core bounds; the winner is the bounding resource, and it
    // dominates when it clears the runner-up by the attribution margin.
    let binding_ports = analysis
        .busiest_ports()
        .iter()
        .map(|&i| machine.port_model.ports[i].name)
        .collect::<Vec<_>>()
        .join("/");
    let bounds = [
        ("port pressure", analysis.tp_bound),
        ("loop-carried dependency", analysis.lcd),
        ("front-end dispatch", analysis.frontend_bound),
    ];
    let mut ranked = bounds;
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ((win_name, win), (run_name, run)) = (ranked[0], ranked[1]);
    let resource = if win_name == "port pressure" && !binding_ports.is_empty() {
        format!("port pressure on {binding_ports}")
    } else {
        win_name.to_string()
    };
    let dominating = win > run * ATTRIBUTION_MARGIN;

    let mut diags = diag::divergence_diags_named(
        &[("incore", analysis.prediction), ("mca", mca_cy)],
        Some(("sim", sim_cy)),
    );
    let divergent = !diags.is_empty();
    diags.extend(diag::attribution_diags(
        variant.kernel.name(),
        divergent,
        dominating.then_some(resource.as_str()),
    ));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain {} on {} ({})",
        variant.kernel.name(),
        machine.chip,
        machine.name
    );
    let _ = writeln!(out, "variant: {}", variant.label());
    let _ = writeln!(out);
    let _ = writeln!(out, "predictions (cy/iter):");
    let pct = |p: f64| {
        if sim_cy > 1e-9 {
            format!("  ({:+.1}% vs sim)", (p - sim_cy) / sim_cy * 100.0)
        } else {
            String::new()
        }
    };
    let _ = writeln!(
        out,
        "  incore {:>8.2}  bottleneck: {}{}",
        analysis.prediction,
        match analysis.bottleneck() {
            incore::Bottleneck::PortPressure => "port-pressure",
            incore::Bottleneck::Dependency => "dependency",
            incore::Bottleneck::FrontEnd => "front-end",
        },
        pct(analysis.prediction)
    );
    let _ = writeln!(
        out,
        "  mca    {:>8.2}  {} µops/iter{}",
        mca_cy,
        mca_pred.uops,
        pct(mca_cy)
    );
    let _ = writeln!(
        out,
        "  sim    {:>8.2}  {:.2} µops/cy  (reference)",
        sim_cy, sim_pred.uops_per_cycle
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "in-core bounds (cy/iter):");
    for (name, v) in &bounds {
        let mark = if *name == win_name {
            "  <- binding"
        } else {
            ""
        };
        let _ = writeln!(out, "  {name:<24} {v:>8.2}{mark}");
    }
    if !binding_ports.is_empty() {
        let _ = writeln!(
            out,
            "  binding ports: {binding_ports} ({:.2} cy each)",
            analysis.port_loads.iter().copied().fold(0.0f64, f64::max)
        );
    }
    let _ = writeln!(out);
    if dominating {
        let over = if run > 1e-9 {
            format!(
                "{:.0}% over runner-up {run_name}",
                (win / run - 1.0) * 100.0
            )
        } else {
            format!("runner-up {run_name} is zero")
        };
        let _ = writeln!(out, "bound by: {resource} (dominating; {over})");
    } else {
        let _ = writeln!(
            out,
            "bound by: {resource} (narrow; {run_name} at {run:.2} cy is within the \
             {:.0}% attribution margin — no dominating resource)",
            (ATTRIBUTION_MARGIN - 1.0) * 100.0
        );
    }
    if diags.is_empty() {
        let _ = writeln!(
            out,
            "predictors agree (no divergence rule fired); the attribution above \
             explains all three."
        );
    } else {
        let _ = writeln!(out);
        out.push_str(&diag::render_text(&diags));
    }
    Ok(out)
}

/// One unit of work for `incore-cli lint` (separated from `main` so the
/// whole subcommand is testable without touching the filesystem).
pub enum LintTarget<'a> {
    /// A machine model already in memory (built-in models).
    Machine(&'a uarch::Machine),
    /// The raw JSON text of a user-supplied machine file.
    MachineFile { label: &'a str, json: &'a str },
    /// Assembly text to run the kernel rules and the predictor-divergence
    /// check against, on the given machine.
    Kernel {
        label: &'a str,
        machine: &'a uarch::Machine,
        asm: &'a str,
        sim: bool,
    },
    /// The machine-model admission gate (rules M008–M010): cross-check a
    /// machine's tables against the ISA coverage its corpus demands. The
    /// model is boxed so this owning variant stays close in size to the
    /// borrowing ones.
    Admission {
        label: String,
        machine: Box<uarch::Machine>,
    },
}

impl LintTarget<'_> {
    fn name(&self) -> String {
        match self {
            LintTarget::Machine(m) => format!("machine:{}", m.name),
            LintTarget::MachineFile { label, .. } => format!("machine-file:{label}"),
            LintTarget::Kernel { label, .. } => format!("kernel:{label}"),
            LintTarget::Admission { label, .. } => format!("admission:{label}"),
        }
    }

    fn lint(&self) -> Vec<diag::Diagnostic> {
        match self {
            LintTarget::Machine(m) => diag::lint_machine(m),
            LintTarget::MachineFile { json, .. } => diag::lint_machine_file(json).1,
            LintTarget::Kernel {
                machine, asm, sim, ..
            } => {
                let (kernel, mut diags) = diag::lint_assembly(machine, asm);
                if let Some(k) = kernel {
                    diags.extend(semck::lint_kernel_sem(machine, &k));
                    diags.extend(diag::lint_divergence(machine, &k, *sim).1);
                }
                diags
            }
            LintTarget::Admission { machine, .. } => semck::lint_admission(machine),
        }
    }
}

/// How a lint run renders and gates its findings — the policy half of
/// [`LintOpts`] (everything except target selection and file paths, which
/// `main` resolves into [`LintTarget`]s and file contents).
#[derive(Debug, Clone, Default)]
pub struct LintPolicy {
    pub json: bool,
    /// SARIF 2.1.0 output (wins over `json`-style rendering).
    pub sarif: bool,
    pub strict: bool,
    /// Rule codes promoted to error severity.
    pub deny: Vec<String>,
    /// Rule codes demoted to info severity (never fail the run).
    pub allow: Vec<String>,
    /// Baseline file *content*: one fingerprint per line; matching
    /// findings are suppressed before rendering and gating.
    pub baseline: Option<String>,
}

/// Result of a lint run: the rendered report, the process exit code, and
/// the sorted fingerprints of every finding (what `--write-baseline`
/// serializes).
pub struct LintOutcome {
    pub output: String,
    pub exit_code: i32,
    pub fingerprints: Vec<String>,
}

/// Stable identity of one finding for baseline matching. Deliberately
/// excludes severity and message text so `--deny`/`--allow` and message
/// rewording don't invalidate a recorded baseline.
fn fingerprint(target: &str, d: &diag::Diagnostic) -> String {
    let (line, snippet) = d
        .span
        .as_ref()
        .map(|s| (s.line, s.snippet.as_str()))
        .unwrap_or((0, ""));
    format!("{target}|{}|{line}|{snippet}", d.code)
}

/// Run the lint rules over every target (plus any precomputed results,
/// e.g. a parallel corpus sweep), apply the severity overrides and the
/// baseline filter, and render the combined report.
pub fn run_lint_with(
    targets: &[LintTarget],
    precomputed: Vec<(String, Vec<diag::Diagnostic>)>,
    policy: &LintPolicy,
) -> LintOutcome {
    use std::fmt::Write;
    let mut results: Vec<(String, Vec<diag::Diagnostic>)> =
        targets.iter().map(|t| (t.name(), t.lint())).collect();
    results.extend(precomputed);
    // Severity overrides: --deny promotes, --allow demotes (and wins when
    // a code appears in both, so a blanket deny can carry exceptions).
    for (_, diags) in &mut results {
        for d in diags {
            if policy.deny.iter().any(|c| c == d.code) {
                d.severity = diag::Severity::Error;
            }
            if policy.allow.iter().any(|c| c == d.code) {
                d.severity = diag::Severity::Info;
            }
        }
    }
    let mut fingerprints: Vec<String> = results
        .iter()
        .flat_map(|(name, diags)| diags.iter().map(|d| fingerprint(name, d)))
        .collect();
    fingerprints.sort();
    fingerprints.dedup();
    if let Some(baseline) = &policy.baseline {
        let known: std::collections::BTreeSet<&str> = baseline
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        for (name, diags) in &mut results {
            diags.retain(|d| !known.contains(fingerprint(name, d).as_str()));
        }
    }
    let all: Vec<diag::Diagnostic> = results
        .iter()
        .flat_map(|(_, d)| d.iter().cloned())
        .collect();
    let output = if policy.sarif {
        diag::render_sarif(&results)
    } else if policy.json {
        let mut s = diag::render_json_targets(&results);
        s.push('\n');
        s
    } else {
        let mut s = String::new();
        for (name, diags) in &results {
            let _ = writeln!(s, "== {name} ==");
            s.push_str(&diag::render_text(diags));
        }
        s
    };
    LintOutcome {
        output,
        exit_code: diag::exit_code(&all, policy.strict),
        fingerprints,
    }
}

/// Run the lint rules over every target and render the combined report.
/// Returns the report and the process exit code (0 clean, 1 findings under
/// the [`diag::exit_code`] policy). Thin wrapper over [`run_lint_with`]
/// with the default policy.
pub fn run_lint(targets: &[LintTarget], json: bool, strict: bool) -> (String, i32) {
    let outcome = run_lint_with(
        targets,
        Vec::new(),
        &LintPolicy {
            json,
            strict,
            ..LintPolicy::default()
        },
    );
    (outcome.output, outcome.exit_code)
}

/// Resolve the lint options into the admission-gate targets: the selected
/// registry models (labelled by registry id), plus any imported machine
/// file (labelled by path). With no selection and no import, *every*
/// registry model goes through the gate — that is the CI invocation, so a
/// new registry entry is admission-checked the moment it is registered.
pub fn admission_targets<'a>(
    selected: Vec<uarch::Machine>,
    imported: &[(String, uarch::Machine)],
) -> Vec<LintTarget<'a>> {
    let mut targets = Vec::new();
    let models = if selected.is_empty() && imported.is_empty() {
        uarch::registry::machines()
    } else {
        selected
    };
    for m in models {
        let label = m.id.to_string();
        targets.push(LintTarget::Admission {
            label,
            machine: Box::new(m),
        });
    }
    for (label, m) in imported {
        targets.push(LintTarget::Admission {
            label: label.clone(),
            machine: Box::new(m.clone()),
        });
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_analyze_full() {
        let c = parse_args(&sv(&["analyze", "k.s", "--arch", "spr", "--mca", "--sim"])).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                path: "k.s".into(),
                sel: MachineSel::model("golden-cove"),
                flags: AnalyzeFlags {
                    mca: true,
                    sim: true,
                    ..AnalyzeFlags::default()
                },
                json: false,
            }
        );
        // --model takes a registry id and lands in the same selection.
        let c = parse_args(&sv(&["analyze", "k.s", "--model", "zen2-rome"])).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                path: "k.s".into(),
                sel: MachineSel::model("zen2-rome"),
                flags: AnalyzeFlags::default(),
                json: false,
            }
        );
    }

    #[test]
    fn every_subcommand_shares_the_machine_parser_and_its_error() {
        // The same unknown name fails identically behind --arch and
        // --model on every subcommand that selects machines.
        let mut msgs = std::collections::BTreeSet::new();
        for args in [
            sv(&["analyze", "k.s", "--arch", "m1"]),
            sv(&["analyze", "k.s", "--model", "m1"]),
            sv(&["validate", "--arch", "m1"]),
            sv(&["lint", "--model", "m1"]),
            sv(&["storebench", "--arch", "m1"]),
            sv(&["explain", "triad", "--model", "m1"]),
            sv(&["export", "--arch", "m1"]),
            sv(&["ports", "--model", "m1"]),
            sv(&["serve", "--arch", "m1"]),
        ] {
            let e = parse_args(&args).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::Usage, "{args:?}");
            msgs.insert(e.to_string());
        }
        assert_eq!(msgs.len(), 1, "one consistent message: {msgs:?}");
        let msg = msgs.iter().next().unwrap();
        assert!(msg.contains("unknown machine `m1`"), "{msg}");
        assert!(msg.contains("incore-cli machines"), "{msg}");
        // Registry ids resolve everywhere a family alias does.
        for args in [
            sv(&["validate", "--model", "cascade-lake"]),
            sv(&["storebench", "--arch", "golden-cove-rob1024"]),
            sv(&["export", "--model", "zen2-rome"]),
        ] {
            assert!(parse_args(&args).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn parse_serve_options() {
        let c = parse_args(&sv(&[
            "serve",
            "--addr",
            "0.0.0.0:7878",
            "--threads",
            "4",
            "--queue",
            "8",
            "--cache",
            "32",
            "--max-request-bytes",
            "4096",
            "--throttle-ms",
            "5",
            "--cache-dir",
            "/tmp/incore-serve-cache",
            "--slow-ms",
            "250",
            "--trace",
            "serve.trace.json",
            "--arch",
            "spr",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(serve::ServeOpts {
                addr: "0.0.0.0:7878".into(),
                threads: 4,
                queue: 8,
                cache: 32,
                max_request_bytes: 4096,
                throttle_ms: 5,
                sel: MachineSel::model("golden-cove"),
                cache_dir: Some("/tmp/incore-serve-cache".into()),
                slow_ms: 250,
                trace: Some("serve.trace.json".into()),
            })
        );
        // Defaults: ephemeral local port, bounded queue/cache, no default
        // machine (requests must name one).
        match parse_args(&sv(&["serve"])).unwrap() {
            Command::Serve(opts) => {
                assert_eq!(opts, serve::ServeOpts::default());
                assert!(opts.sel.is_empty());
            }
            other => panic!("{other:?}"),
        }
        let e = parse_args(&sv(&["serve", "--queue", "0"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        let e = parse_args(&sv(&["serve", "--port"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
    }

    #[test]
    fn parse_top_options() {
        assert_eq!(
            parse_args(&sv(&[
                "top",
                "127.0.0.1:7070",
                "--interval-ms",
                "250",
                "--count",
                "3",
            ]))
            .unwrap(),
            Command::Top(top::TopOpts {
                addr: "127.0.0.1:7070".into(),
                interval_ms: 250,
                count: 3,
                clear: false,
            })
        );
        // The address is required; zero-period polling is rejected.
        let e = parse_args(&sv(&["top"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        let e = parse_args(&sv(&["top", "a:1", "--interval-ms", "0"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        let e = parse_args(&sv(&["top", "a:1", "b:2"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
    }

    #[test]
    fn analyze_report_json_is_run_analyze_json_minus_timings() {
        let machine = uarch::Machine::golden_cove();
        let asm = ".L1:\n vaddpd %ymm1, %ymm2, %ymm3\n subq $1, %rax\n jne .L1\n";
        let flags = AnalyzeFlags {
            mca: true,
            ..AnalyzeFlags::default()
        };
        let det = analyze_report_json(&machine, "k.s", asm, flags).unwrap();
        assert_eq!(
            det,
            analyze_report_json(&machine, "k.s", asm, flags).unwrap(),
            "the served path must be bit-stable"
        );
        // The timed variant differs only in the timings stamp.
        let timed = run_analyze_json(&machine, "k.s", asm, flags).unwrap();
        let strip = |s: &str| -> String {
            let start = s.find("\"timings\":").expect("report carries timings");
            let rest = &s[start..];
            let end = start + rest.find('}').expect("timings object closes") + 1;
            format!("{}{}", &s[..start], &s[end..])
        };
        assert_eq!(strip(&det), strip(&timed));
        assert_ne!(det, timed, "run_analyze_json stamps real wall time");
    }

    #[test]
    fn parse_analyze_sim_overrides() {
        let c = parse_args(&sv(&[
            "analyze",
            "k.s",
            "--arch",
            "genoa",
            "--sim",
            "--iterations",
            "64",
            "--warmup",
            "8",
        ]))
        .unwrap();
        match c {
            Command::Analyze { flags, .. } => {
                assert_eq!(
                    flags.sim_cfg,
                    SimOverrides {
                        iterations: Some(64),
                        warmup: Some(8),
                    }
                );
                let cfg = flags.sim_cfg.config();
                assert_eq!(cfg.iterations, 64);
                assert_eq!(cfg.warmup, 8);
                assert!(
                    cfg.early_exit && cfg.quirks,
                    "overrides must not disturb other defaults"
                );
            }
            other => panic!("{other:?}"),
        }
        let e = parse_args(&sv(&["analyze", "k.s", "--arch", "spr", "--iterations"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
    }

    /// `--arch` family aliases resolve to registry ids, case-insensitively;
    /// an unknown name is an error.
    #[test]
    fn parse_arch_aliases() {
        assert_eq!(resolve_model_id("grace").unwrap(), "neoverse-v2");
        assert_eq!(resolve_model_id("GCS").unwrap(), "neoverse-v2");
        assert_eq!(resolve_model_id("zen4").unwrap(), "zen4");
        assert_eq!(resolve_model_id("golden-cove").unwrap(), "golden-cove");
        assert!(resolve_model_id("m1").is_err());
    }

    #[test]
    fn missing_arch_is_an_error() {
        assert!(parse_args(&sv(&["analyze", "k.s"])).is_err());
        assert!(parse_args(&sv(&["ports"])).is_err());
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let e = parse_args(&sv(&["analyze", "k.s", "--arch", "spr", "--wat"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("--wat"));
        // Switches that only selected a bit-identical duplicate or oracle
        // path are not options: the oracles are test scaffolding.
        for args in [
            &["validate", "--stream"][..],
            &["storebench", "--reference"],
            &["validate", "--no-early-exit"],
            &["analyze", "k.s", "--arch", "spr", "--no-early-exit"],
            &["explain", "triad", "--arch", "spr", "--no-early-exit"],
        ] {
            let e = parse_args(&sv(args)).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::Usage, "{args:?}");
            assert!(e.to_string().contains("unknown flag"), "{args:?}: {e}");
        }
    }

    #[test]
    fn other_commands() {
        assert_eq!(
            parse_args(&sv(&["machines"])).unwrap(),
            Command::Machines { json: false }
        );
        assert_eq!(
            parse_args(&sv(&["machines", "--json"])).unwrap(),
            Command::Machines { json: true }
        );
        assert!(parse_args(&sv(&["machines", "--wat"])).is_err());
        assert_eq!(parse_args(&sv(&[])).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&sv(&["storebench", "--arch", "genoa", "--nt"])).unwrap(),
            Command::StoreBench {
                sel: MachineSel::model("zen4"),
                nt: true,
                json: false,
                threads: None,
                profile: None,
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "storebench",
                "--arch",
                "spr",
                "--arch",
                "gcs",
                "--json",
                "--threads",
                "2",
            ]))
            .unwrap(),
            Command::StoreBench {
                sel: MachineSel {
                    refs: vec![
                        MachineRef::Model("golden-cove".into()),
                        MachineRef::Model("neoverse-v2".into()),
                    ],
                },
                nt: false,
                json: true,
                threads: Some(2),
                profile: None,
            }
        );
        assert!(parse_args(&sv(&["storebench", "--threads", "many"])).is_err());
        assert_eq!(
            parse_args(&sv(&["ports", "--arch", "gcs"])).unwrap(),
            Command::Ports {
                sel: MachineSel::model("neoverse-v2"),
            }
        );
    }

    #[test]
    fn parse_validate_variants() {
        assert_eq!(
            parse_args(&sv(&["validate"])).unwrap(),
            Command::Validate(ValidateOpts::default())
        );
        assert_eq!(
            parse_args(&sv(&[
                "validate",
                "--arch",
                "spr",
                "--arch",
                "genoa",
                "--threads",
                "4",
                "--limit",
                "32",
                "--json",
                "--threshold",
                "0.25",
                "--max-divergent",
                "10",
            ]))
            .unwrap(),
            Command::Validate(ValidateOpts {
                sel: MachineSel {
                    refs: vec![
                        MachineRef::Model("golden-cove".into()),
                        MachineRef::Model("zen4".into()),
                    ],
                },
                threads: 4,
                limit: Some(32),
                json: true,
                threshold: Some(0.25),
                max_divergent: Some(10),
                ..ValidateOpts::default()
            })
        );
        assert_eq!(
            parse_args(&sv(&[
                "validate",
                "--cache-dir",
                "/tmp/incore-cache",
                "--volume",
                "2000",
            ]))
            .unwrap(),
            Command::Validate(ValidateOpts {
                cache_dir: Some("/tmp/incore-cache".into()),
                volume: Some(2000),
                ..ValidateOpts::default()
            })
        );
        assert!(parse_args(&sv(&["validate", "--volume", "many"])).is_err());
        assert!(parse_args(&sv(&["validate", "--cache-dir"])).is_err());
        assert_eq!(
            parse_args(&sv(&["validate", "--iterations", "100", "--warmup", "20",])).unwrap(),
            Command::Validate(ValidateOpts {
                sim: SimOverrides {
                    iterations: Some(100),
                    warmup: Some(20),
                },
                ..ValidateOpts::default()
            })
        );
        let e = parse_args(&sv(&["validate", "--threads", "lots"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        assert!(parse_args(&sv(&["validate", "--wat"])).is_err());
    }

    #[test]
    fn run_analyze_produces_report_with_extras() {
        let m = uarch::Machine::golden_cove();
        let asm = ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n subq $1, %rax\n jne .L1\n";
        let flags = AnalyzeFlags {
            mca: true,
            sim: true,
            timeline: true,
            trace: true,
            ..AnalyzeFlags::default()
        };
        let out = run_analyze(&m, asm, flags).unwrap();
        assert!(out.contains("Block prediction"));
        assert!(out.contains("simulator:"));
        assert!(out.contains("LLVM-MCA-style baseline:"));
        assert!(out.contains("MCA timeline"));
        assert!(out.contains("pipeline trace"));
    }

    #[test]
    fn analyze_json_shares_the_batch_schema() {
        let m = uarch::Machine::golden_cove();
        let asm = ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n subq $1, %rax\n jne .L1\n";
        let flags = AnalyzeFlags {
            mca: true,
            sim: true,
            ..AnalyzeFlags::default()
        };
        let out = run_analyze_json(&m, "k.s", asm, flags).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(
            o.get("schema_version").unwrap().as_u64().unwrap(),
            engine::SCHEMA_VERSION as u64
        );
        let records = o.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 1);
        let rec = records[0].as_object().unwrap();
        assert_eq!(rec.get("kernel").unwrap().as_str().unwrap(), "k.s");
        assert!(rec.get("measured").unwrap().as_f64().unwrap() > 0.0);
        let preds = rec.get("predictions").unwrap().as_array().unwrap();
        assert_eq!(preds.len(), 2);
        assert_eq!(
            preds[0]
                .as_object()
                .unwrap()
                .get("predictor")
                .unwrap()
                .as_str()
                .unwrap(),
            "incore"
        );
        // The timings block is present and wall-clock is nonzero.
        let t = o.get("timings").unwrap().as_object().unwrap();
        assert!(t.get("wall_ms").unwrap().as_f64().unwrap() > 0.0);
        // Parse failures carry the input label as context.
        let e =
            run_analyze_json(&m, "k.s", "movq %bogus, %rax", AnalyzeFlags::default()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Parse);
        assert!(e.to_string().contains("k.s"));
    }

    #[test]
    fn validate_smoke_run_and_gates() {
        let clean = run_validate(&ValidateOpts {
            sel: MachineSel::model("golden-cove"),
            threads: 2,
            limit: Some(8),
            json: false,
            threshold: Some(10.0),
            max_divergent: Some(1000),
            ..ValidateOpts::default()
        })
        .unwrap();
        assert!(clean.gate_failures.is_empty());
        assert!(clean.output.contains("validation over 8 test blocks"));
        // An absurdly tight threshold must trip the gate.
        let tripped = run_validate(&ValidateOpts {
            sel: MachineSel::model("golden-cove"),
            threads: 1,
            limit: Some(8),
            json: true,
            threshold: Some(1e-9),
            max_divergent: None,
            ..ValidateOpts::default()
        })
        .unwrap();
        assert_eq!(tripped.gate_failures.len(), 1);
        assert_eq!(tripped.gate_failures[0].kind(), ErrorKind::Threshold);
        let v: serde_json::Value = serde_json::from_str(&tripped.output).unwrap();
        assert_eq!(
            v.as_object()
                .unwrap()
                .get("records")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn storebench_text_format_is_stable() {
        // The single-machine text table is the original `--arch` output:
        // no per-machine header, same filter, same row format.
        let out = run_storebench(&[uarch::Machine::golden_cove()], false, false);
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("cores  traffic/stored"));
        let first = lines.next().unwrap();
        assert!(first.starts_with("    1  "), "{first}");
        assert!(
            !out.contains("SPR ("),
            "single machine must not get a header"
        );
        // All machines: one headed block per machine.
        let all = run_storebench(&uarch::all_machines(), false, false);
        for chip in ["GCS", "SPR", "Genoa"] {
            assert!(all.contains(&format!("{chip} (")), "{all}");
        }
    }

    #[test]
    fn storebench_json_is_versioned_and_thread_invariant() {
        let out = run_storebench(&uarch::all_machines(), true, true);
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("schema_version").unwrap().as_u64().unwrap(), 1);
        assert_eq!(o.get("kind").unwrap().as_str().unwrap(), "nt");
        // NT sweeps cover only the machines the paper shows NT data for —
        // the report still lists all requested machines.
        assert_eq!(o.get("machines").unwrap().as_array().unwrap().len(), 3);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool builds")
            .install(|| run_storebench(&uarch::all_machines(), true, true));
        assert_eq!(out, one, "storebench --json must not depend on threads");
    }

    #[test]
    fn parse_export_and_machine_file() {
        assert_eq!(
            parse_args(&sv(&["export", "--arch", "spr"])).unwrap(),
            Command::Export {
                sel: MachineSel::model("golden-cove"),
            }
        );
        let c = parse_args(&sv(&[
            "analyze",
            "k.s",
            "--arch",
            "spr",
            "--machine-file",
            "m.json",
        ]))
        .unwrap();
        match c {
            Command::Analyze { sel, .. } => {
                assert_eq!(
                    sel.refs,
                    vec![
                        MachineRef::Model("golden-cove".into()),
                        MachineRef::File("m.json".into()),
                    ]
                );
                // A machine file wins over a registry model, so the
                // historical `--machine-file` override still holds; the
                // missing file surfaces as an I/O error at resolution.
                assert_eq!(sel.resolve_one().unwrap_err().kind(), ErrorKind::Io);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn machine_sel_resolution_rules() {
        // Model-only: the last occurrence wins for single-machine use.
        let sel = MachineSel {
            refs: vec![
                MachineRef::Model("neoverse-v2".into()),
                MachineRef::Model("zen2-rome".into()),
            ],
        };
        assert_eq!(sel.resolve_one().unwrap().id, "zen2-rome");
        // Multi-machine resolution preserves selection order.
        let ids: Vec<&str> = sel.resolve().unwrap().iter().map(|m| m.id).collect();
        assert_eq!(ids, ["neoverse-v2", "zen2-rome"]);
        // Empty selections default to the paper's trio where allowed…
        let trio = MachineSel::default().resolve_or_trio().unwrap();
        assert_eq!(trio.len(), 3);
        assert_eq!(trio[0].id, "neoverse-v2");
        // …and are a usage error where one machine is required.
        assert_eq!(
            MachineSel::default().resolve_one().unwrap_err().kind(),
            ErrorKind::Usage
        );
    }

    #[test]
    fn run_analyze_rejects_bad_asm() {
        let m = uarch::Machine::golden_cove();
        let e = run_analyze(&m, "movq %bogus, %rax", AnalyzeFlags::default()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Parse);
    }

    #[test]
    fn parse_lint_variants() {
        assert_eq!(
            parse_args(&sv(&["lint"])).unwrap(),
            Command::Lint(LintOpts::default())
        );
        assert_eq!(
            parse_args(&sv(&[
                "lint", "k.s", "--arch", "spr", "--json", "--strict", "--sim"
            ]))
            .unwrap(),
            Command::Lint(LintOpts {
                path: Some("k.s".into()),
                sel: MachineSel::model("golden-cove"),
                json: true,
                strict: true,
                sim: true,
                ..LintOpts::default()
            })
        );
        assert_eq!(
            parse_args(&sv(&["lint", "k.s", "--machine-file", "m.json"])).unwrap(),
            Command::Lint(LintOpts {
                path: Some("k.s".into()),
                sel: MachineSel {
                    refs: vec![MachineRef::File("m.json".into())],
                },
                ..LintOpts::default()
            })
        );
        assert_eq!(
            parse_args(&sv(&[
                "lint",
                "--admission",
                "--corpus",
                "--threads",
                "3",
                "--deny",
                "K004",
                "--deny",
                "M007",
                "--allow",
                "K001",
                "--baseline",
                "base.txt",
                "--write-baseline",
                "new.txt",
                "--sarif",
            ]))
            .unwrap(),
            Command::Lint(LintOpts {
                admission: true,
                corpus: true,
                threads: 3,
                deny: vec!["K004".into(), "M007".into()],
                allow: vec!["K001".into()],
                baseline: Some("base.txt".into()),
                write_baseline: Some("new.txt".into()),
                sarif: true,
                ..LintOpts::default()
            })
        );
        // A kernel needs a machine to lint against.
        assert!(parse_args(&sv(&["lint", "k.s"])).is_err());
        assert!(parse_args(&sv(&["lint", "--wat"])).is_err());
        // The two machine-readable formats are mutually exclusive.
        assert!(parse_args(&sv(&["lint", "--json", "--sarif"])).is_err());
        assert!(parse_args(&sv(&["lint", "--deny"])).is_err());
    }

    #[test]
    fn admission_gate_passes_every_registry_model_and_rejects_gutted_machine() {
        // With no selection, every registry model — the paper trio and
        // the derived entries — clears the admission gate.
        let targets = admission_targets(Vec::new(), &[]);
        assert_eq!(targets.len(), uarch::registry::entries().len());
        let (out, code) = run_lint(&targets, false, false);
        assert_eq!(code, 0, "{out}");
        for id in uarch::registry::ids() {
            assert!(out.contains(&format!("== admission:{id} ==")), "{out}");
        }
        // A machine file whose tables lost an opcode class its corpus
        // needs (the FMA entries) is rejected with an M008 error.
        let mut m = uarch::Machine::golden_cove();
        m.table
            .retain(|e| !e.mnemonics.iter().any(|mn| mn.starts_with("vfmadd")));
        let targets = admission_targets(Vec::new(), &[("gutted.json".to_string(), m)]);
        assert_eq!(targets.len(), 1);
        let (out, code) = run_lint(&targets, false, false);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("M008"), "{out}");
        assert!(out.contains("== admission:gutted.json =="), "{out}");
        // A selection restricts the gate to the named machines, labelled
        // by registry id.
        let targets = admission_targets(vec![uarch::Machine::zen4()], &[]);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].name(), "admission:zen4");
    }

    #[test]
    fn fixture_machine_file_is_rejected_by_the_admission_gate() {
        // The checked-in acceptance fixture: Golden Cove with its FMA
        // entries stripped. It must import cleanly (the structural rules
        // can't see the gap) yet fail `lint --admission`.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/machines/golden_cove_no_fma.json"
        );
        let json = std::fs::read_to_string(path).expect("fixture exists");
        let m = uarch::Machine::from_json(&json).expect("fixture imports");
        let (out, code) = run_lint(
            &[LintTarget::MachineFile {
                label: "golden_cove_no_fma.json",
                json: &json,
            }],
            false,
            false,
        );
        assert_eq!(code, 0, "structural lint must not catch the gap: {out}");
        let targets = admission_targets(Vec::new(), &[("golden_cove_no_fma.json".to_string(), m)]);
        let (out, code) = run_lint(&targets, false, false);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("M008"), "{out}");
        assert!(out.contains("vfmadd"), "{out}");
    }

    #[test]
    fn deny_and_allow_override_severities() {
        // Mixed SSE/AVX fires K004 as a warning: relaxed runs pass.
        let m = uarch::Machine::golden_cove();
        let asm = ".L1:\n addps %xmm0, %xmm1\n vaddpd %ymm2, %ymm3, %ymm4\n \
                   vmovupd %ymm4, (%rdi)\n movups %xmm1, 32(%rdi)\n \
                   subq $1, %rax\n jne .L1\n";
        let mk = || LintTarget::Kernel {
            label: "mixed.s",
            machine: &m,
            asm,
            sim: false,
        };
        // --deny K004 promotes the warning to a failing error.
        let denied = run_lint_with(
            &[mk()],
            Vec::new(),
            &LintPolicy {
                deny: vec!["K004".into()],
                ..LintPolicy::default()
            },
        );
        assert_eq!(denied.exit_code, 1, "{}", denied.output);
        // --allow K004 keeps even a --strict run green (no other warnings
        // in this kernel), and wins when the code is denied too.
        let allowed = run_lint_with(
            &[mk()],
            Vec::new(),
            &LintPolicy {
                strict: true,
                deny: vec!["K004".into()],
                allow: vec!["K004".into(), "K001".into()],
                ..LintPolicy::default()
            },
        );
        assert_eq!(allowed.exit_code, 0, "{}", allowed.output);
    }

    #[test]
    fn baseline_suppresses_recorded_findings() {
        let m = uarch::Machine::golden_cove();
        let asm = ".L1:\n addps %xmm0, %xmm1\n vaddpd %ymm2, %ymm3, %ymm4\n \
                   vmovupd %ymm4, (%rdi)\n movups %xmm1, 32(%rdi)\n \
                   subq $1, %rax\n jne .L1\n";
        let mk = || LintTarget::Kernel {
            label: "mixed.s",
            machine: &m,
            asm,
            sim: false,
        };
        let first = run_lint_with(&[mk()], Vec::new(), &LintPolicy::default());
        assert!(!first.fingerprints.is_empty());
        assert!(first.output.contains("K004"), "{}", first.output);
        // Feeding the recorded fingerprints back silences every finding,
        // even under --strict with the rule denied.
        let second = run_lint_with(
            &[mk()],
            Vec::new(),
            &LintPolicy {
                strict: true,
                deny: vec!["K004".into()],
                baseline: Some(first.fingerprints.join("\n")),
                ..LintPolicy::default()
            },
        );
        assert_eq!(second.exit_code, 0, "{}", second.output);
        assert!(!second.output.contains("K004"), "{}", second.output);
        // The fingerprints themselves are unaffected by the filter, so
        // re-writing a baseline from a baselined run loses nothing.
        assert_eq!(first.fingerprints, second.fingerprints);
    }

    #[test]
    fn sarif_output_is_parseable_and_names_targets() {
        let machines = uarch::all_machines();
        let targets: Vec<LintTarget> = machines.iter().map(LintTarget::Machine).collect();
        let outcome = run_lint_with(
            &targets,
            Vec::new(),
            &LintPolicy {
                sarif: true,
                ..LintPolicy::default()
            },
        );
        let v: serde_json::Value = serde_json::from_str(&outcome.output).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("version").unwrap().as_str().unwrap(), "2.1.0");
        let runs = o.get("runs").unwrap().as_array().unwrap();
        let run = runs[0].as_object().unwrap();
        let results = run.get("results").unwrap().as_array().unwrap();
        // The shipped models carry advisory M007 findings, so the report
        // is non-empty and every result points at a machine target.
        assert!(!results.is_empty());
        for r in results {
            let uri = r
                .as_object()
                .unwrap()
                .get("locations")
                .unwrap()
                .as_array()
                .unwrap()[0]
                .as_object()
                .unwrap()
                .get("physicalLocation")
                .unwrap()
                .as_object()
                .unwrap()
                .get("artifactLocation")
                .unwrap()
                .as_object()
                .unwrap()
                .get("uri")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert!(uri.starts_with("machine:"), "{uri}");
        }
    }

    #[test]
    fn corpus_lint_slice_flows_through_the_driver() {
        // A corpus slice rides in as precomputed results and renders under
        // its corpus:{chip}:{variant} target names.
        let slice = engine::lint_corpus(&[uarch::Arch::Zen4], 2, Some(6));
        let outcome = run_lint_with(&[], slice.clone(), &LintPolicy::default());
        assert_eq!(outcome.exit_code, 0, "{}", outcome.output);
        assert!(
            outcome.output.contains("== corpus:Genoa:"),
            "{}",
            outcome.output
        );
        // Byte-identical to a single-threaded sweep, rendered or raw.
        let one = engine::lint_corpus(&[uarch::Arch::Zen4], 1, Some(6));
        assert_eq!(slice, one);
    }

    #[test]
    fn lint_all_builtin_machines_is_clean() {
        let machines = uarch::all_machines();
        let targets: Vec<LintTarget> = machines.iter().map(LintTarget::Machine).collect();
        let (out, code) = run_lint(&targets, false, true);
        assert_eq!(code, 0, "{out}");
        for m in &machines {
            assert!(
                out.contains(&format!("== machine:{} ==", m.arch.label())),
                "{out}"
            );
        }
    }

    #[test]
    fn lint_surfaces_cache_geometry_rule() {
        // The shipped L3 slices are non-representable by design: M007 fires
        // as an advisory and must not fail even --strict runs.
        let machines = uarch::all_machines();
        let targets: Vec<LintTarget> = machines.iter().map(LintTarget::Machine).collect();
        let (out, code) = run_lint(&targets, false, true);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("M007"), "{out}");
        // A machine file with a distorted private cache gets the warning,
        // and --strict turns it into a failing run.
        let mut m = uarch::Machine::golden_cove();
        let idx = m.caches.iter().position(|c| !c.shared).unwrap();
        m.caches[idx].assoc = 8;
        let edited = m.to_json();
        let t = LintTarget::MachineFile {
            label: "edited.json",
            json: &edited,
        };
        let (out, relaxed) = run_lint(&[t], false, false);
        assert!(out.contains("M007"), "{out}");
        assert!(out.contains("not representable"), "{out}");
        assert_eq!(relaxed, 0, "{out}");
        let t = LintTarget::MachineFile {
            label: "edited.json",
            json: &edited,
        };
        let (_, strict) = run_lint(&[t], false, true);
        assert_eq!(strict, 1);
    }

    #[test]
    fn lint_sample_kernels_from_each_isa_are_clean() {
        let x86 = ".L1:\n vfmadd231pd (%rdi), %zmm1, %zmm2\n addq $64, %rdi\n \
                   subq $1, %rax\n jne .L1\n";
        let a64 = ".L1:\n ldr q0, [x1], #16\n fmla v2.2d, v0.2d, v1.2d\n \
                   subs x2, x2, #1\n b.ne .L1\n";
        for (machine, asm) in [
            (uarch::Machine::golden_cove(), x86),
            (uarch::Machine::zen4(), x86),
            (uarch::Machine::neoverse_v2(), a64),
        ] {
            let t = LintTarget::Kernel {
                label: "sample.s",
                machine: &machine,
                asm,
                sim: true,
            };
            let (out, code) = run_lint(&[t], false, false);
            assert_eq!(code, 0, "{}: {out}", machine.arch.label());
        }
    }

    #[test]
    fn lint_seeded_error_fixture_fails() {
        let m = uarch::Machine::golden_cove();
        let t = LintTarget::Kernel {
            label: "bad.s",
            machine: &m,
            asm: "movq %bogus, %rax\n",
            sim: false,
        };
        let (out, code) = run_lint(&[t], false, false);
        assert_eq!(code, 1);
        assert!(out.contains("K006"), "{out}");
    }

    #[test]
    fn lint_strict_promotes_warnings_to_failures() {
        // Mixed SSE and AVX in one kernel fires K004 (a warning).
        let m = uarch::Machine::golden_cove();
        let asm = ".L1:\n addps %xmm0, %xmm1\n vaddpd %ymm2, %ymm3, %ymm4\n \
                   vmovupd %ymm4, (%rdi)\n movups %xmm1, 32(%rdi)\n \
                   subq $1, %rax\n jne .L1\n";
        let mk = |sim| LintTarget::Kernel {
            label: "mixed.s",
            machine: &m,
            asm,
            sim,
        };
        let (out, relaxed) = run_lint(&[mk(false)], false, false);
        assert!(out.contains("K004"), "{out}");
        assert_eq!(relaxed, 0, "{out}");
        let (_, strict) = run_lint(&[mk(false)], false, true);
        assert_eq!(strict, 1);
    }

    #[test]
    fn lint_machine_file_target_reports_bad_json() {
        let good = uarch::Machine::zen4().to_json();
        let (out, code) = run_lint(
            &[LintTarget::MachineFile {
                label: "m.json",
                json: &good,
            }],
            false,
            false,
        );
        assert_eq!(code, 0, "{out}");
        let (out, code) = run_lint(
            &[LintTarget::MachineFile {
                label: "m.json",
                json: "{ nope",
            }],
            false,
            false,
        );
        assert_eq!(code, 1);
        assert!(out.contains("M006"), "{out}");
    }

    #[test]
    fn parse_profile_modes() {
        assert_eq!(parse_profile_mode("--profile").unwrap(), ProfileMode::Text);
        assert_eq!(
            parse_profile_mode("--profile=text").unwrap(),
            ProfileMode::Text
        );
        assert_eq!(
            parse_profile_mode("--profile=json").unwrap(),
            ProfileMode::Json
        );
        assert_eq!(
            parse_profile_mode("--profile=chrome").unwrap(),
            ProfileMode::Chrome
        );
        assert_eq!(
            parse_profile_mode("--profile=flame").unwrap_err().kind(),
            ErrorKind::Usage
        );
        // The flag lands on all three profiled subcommands.
        match parse_args(&sv(&["validate", "--profile=chrome"])).unwrap() {
            Command::Validate(o) => assert_eq!(o.profile, Some(ProfileMode::Chrome)),
            other => panic!("{other:?}"),
        }
        match parse_args(&sv(&["analyze", "k.s", "--arch", "spr", "--profile"])).unwrap() {
            Command::Analyze { flags, .. } => assert_eq!(flags.profile, Some(ProfileMode::Text)),
            other => panic!("{other:?}"),
        }
        match parse_args(&sv(&["storebench", "--profile=json"])).unwrap() {
            Command::StoreBench { profile, .. } => assert_eq!(profile, Some(ProfileMode::Json)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&sv(&["validate", "--profile=flame"])).is_err());
    }

    #[test]
    fn parse_explain() {
        assert_eq!(
            parse_args(&sv(&["explain", "triad", "--arch", "gcs"])).unwrap(),
            Command::Explain {
                kernel: "triad".into(),
                sel: MachineSel::model("neoverse-v2"),
                sim: SimOverrides::default(),
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "explain",
                "copy",
                "--arch",
                "genoa",
                "--machine-file",
                "m.json",
                "--iterations",
                "64",
            ]))
            .unwrap(),
            Command::Explain {
                kernel: "copy".into(),
                sel: MachineSel {
                    refs: vec![
                        MachineRef::Model("zen4".into()),
                        MachineRef::File("m.json".into()),
                    ],
                },
                sim: SimOverrides {
                    iterations: Some(64),
                    ..SimOverrides::default()
                },
            }
        );
        // Kernel and arch are both required; unknown flags are usage errors.
        assert!(parse_args(&sv(&["explain", "--arch", "spr"])).is_err());
        assert!(parse_args(&sv(&["explain", "triad"])).is_err());
        assert!(parse_args(&sv(&["explain", "triad", "--arch", "spr", "--wat"])).is_err());
    }

    #[test]
    fn explain_names_a_bounding_resource_on_every_machine() {
        for machine in uarch::all_machines() {
            let out = run_explain(&machine, "streamtriad", SimOverrides::default()).unwrap();
            assert!(
                out.contains("bound by: "),
                "{}: {out}",
                machine.arch.label()
            );
            assert!(out.contains("in-core bounds (cy/iter):"), "{out}");
            assert!(out.contains("  incore"), "{out}");
            assert!(out.contains("(reference)"), "{out}");
            // Either the predictors agree or every divergence is explained
            // (a D003 finding marks the unexplained case explicitly).
            assert!(
                out.contains("predictors agree") || out.contains("D0"),
                "{out}"
            );
        }
        // Names match case-insensitively ignoring spaces and punctuation,
        // and unique substrings resolve ("schoenauer" → Schoenauer triad).
        let m = uarch::Machine::golden_cove();
        let upper = run_explain(&m, "STREAM triad", SimOverrides::default()).unwrap();
        let lower = run_explain(&m, "streamtriad", SimOverrides::default()).unwrap();
        assert_eq!(upper, lower);
        let sub = run_explain(&m, "schoenauer", SimOverrides::default()).unwrap();
        assert!(sub.contains("Schoenauer triad"), "{sub}");
        // Ambiguous substrings list the candidates.
        let e = run_explain(&m, "triad", SimOverrides::default()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        assert!(e.to_string().contains("Schoenauer triad"), "{e}");
        // Unknown kernels list what the corpus does contain.
        let e = run_explain(&m, "nope", SimOverrides::default()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage);
        assert!(e.to_string().contains("STREAM triad"), "{e}");
    }

    #[test]
    fn render_profile_modes_and_chrome_trace_shape() {
        // Built by hand so the test never touches the global recorder.
        let mut profile = obs::Profile::default();
        profile.counters.insert("sim.calls".into(), 3);
        profile.spans.push(obs::SpanRecord {
            name: "sim:triad".into(),
            tid: 1,
            depth: 0,
            start_us: 10,
            dur_us: 250,
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
        });
        let text = render_profile(&profile, ProfileMode::Text);
        assert!(text.contains("sim.calls"), "{text}");
        assert!(text.contains("sim:triad"), "{text}");
        let json = render_profile(&profile, ProfileMode::Json);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let o = v.as_object().unwrap();
        let counters = o.get("counters").unwrap().as_object().unwrap();
        assert_eq!(counters.get("sim.calls").unwrap().as_u64().unwrap(), 3);
        let spans = o.get("spans").unwrap().as_array().unwrap();
        let span0 = spans[0].as_object().unwrap();
        assert_eq!(span0.get("name").unwrap().as_str().unwrap(), "sim:triad");
        // The chrome rendering must be valid Chrome trace event format:
        // a traceEvents array whose events carry name/ph/ts/pid/tid, with
        // a dur on every complete ("X") event.
        let chrome = render_profile(&profile, ProfileMode::Chrome);
        let v: serde_json::Value = serde_json::from_str(&chrome).unwrap();
        let events = v
            .as_object()
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            let o = e.as_object().unwrap();
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(o.contains_key(key), "missing {key}: {e:?}");
            }
            if o.get("ph").unwrap().as_str().unwrap() == "X" {
                assert!(o.get("dur").unwrap().as_u64().unwrap() > 0, "{e:?}");
            }
        }
    }

    #[test]
    fn validate_profile_attaches_obs_block_to_json() {
        let profiled = run_validate(&ValidateOpts {
            sel: MachineSel::model("golden-cove"),
            threads: 1,
            limit: Some(4),
            json: true,
            profile: Some(ProfileMode::Text),
            ..ValidateOpts::default()
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&profiled.output).unwrap();
        let obs = v
            .as_object()
            .unwrap()
            .get("obs")
            .expect("obs block present")
            .as_object()
            .unwrap();
        assert_eq!(
            obs.get("schema_minor").unwrap().as_u64().unwrap(),
            engine::SCHEMA_MINOR as u64
        );
        assert!(!obs
            .get("predictors")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        // Without --profile the block is absent entirely.
        let plain = run_validate(&ValidateOpts {
            sel: MachineSel::model("golden-cove"),
            threads: 1,
            limit: Some(4),
            json: true,
            ..ValidateOpts::default()
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&plain.output).unwrap();
        assert!(v.as_object().unwrap().get("obs").is_none());
    }

    #[test]
    fn machines_text_listing_shows_ids_and_lineage() {
        let text = run_machines(false);
        for id in uarch::registry::ids() {
            assert!(text.contains(id), "missing {id}: {text}");
        }
        // Family entries are marked as bases; derived entries carry their
        // lineage — base id plus the recorded deltas, in order.
        assert!(text.contains("base model (paper family)"), "{text}");
        assert!(text.contains("base: zen4 + "), "{text}");
        assert!(text.contains("base: golden-cove + "), "{text}");
        assert!(text.contains("rob 512 → 1024"), "{text}");
    }

    #[test]
    fn machines_json_matches_the_golden_snapshot() {
        let json = run_machines(true);
        assert_eq!(json, run_machines(true), "listing must be deterministic");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(
            o.get("schema_version").unwrap().as_u64().unwrap(),
            MACHINES_SCHEMA_VERSION as u64
        );
        let models = o.get("models").unwrap().as_array().unwrap();
        assert_eq!(models.len(), uarch::registry::entries().len());
        for (model, entry) in models.iter().zip(uarch::registry::entries()) {
            let m = model.as_object().unwrap();
            assert_eq!(m.get("id").unwrap().as_str().unwrap(), entry.id);
            let base = m.get("base").unwrap().as_str().unwrap();
            let deltas = m.get("deltas").unwrap().as_array().unwrap();
            if base == entry.id {
                assert!(deltas.is_empty(), "{}: family entry with deltas", entry.id);
            } else {
                assert!(
                    !deltas.is_empty(),
                    "{}: derived entry without lineage",
                    entry.id
                );
            }
            for key in ["ports", "rob_size", "cores", "max_isa_vec_bits"] {
                assert!(m.get(key).unwrap().as_u64().unwrap() > 0, "{key}");
            }
        }
        // The byte-stable contract: the listing equals the checked-in
        // golden snapshot (regenerate with UPDATE_FIXTURES=1).
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/machines/registry_listing.json"
        );
        if std::env::var_os("UPDATE_FIXTURES").is_some() {
            std::fs::write(path, &json).expect("fixture written");
        }
        let golden = std::fs::read_to_string(path)
            .expect("golden snapshot exists; regenerate with UPDATE_FIXTURES=1");
        assert_eq!(
            json, golden,
            "machines --json drifted from the golden snapshot; \
             regenerate with UPDATE_FIXTURES=1"
        );
    }

    #[test]
    fn lint_json_output_is_parseable() {
        let machines = uarch::all_machines();
        let targets: Vec<LintTarget> = machines.iter().map(LintTarget::Machine).collect();
        let (out, code) = run_lint(&targets, true, false);
        assert_eq!(code, 0);
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let o = v.as_object().unwrap();
        assert!(o.contains_key("version"));
        assert!(o.contains_key("counts"));
        assert_eq!(o.get("targets").unwrap().as_array().unwrap().len(), 3);
    }
}
