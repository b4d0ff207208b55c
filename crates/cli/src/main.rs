//! `incore-cli` entry point. All logic lives in the library for
//! testability; this file only does I/O and exit-code plumbing: `run`
//! propagates every failure as a workspace [`cli::Error`] with `?`, and
//! `main` maps the error kind to the process exit code (2 for usage, 1
//! for everything else).

use cli::{
    parse_args, run_analyze, run_analyze_json, run_explain, run_machines, run_validate, Command,
    Error, ErrorKind, LintTarget, MachineRef, ProfileMode, USAGE,
};

/// Chrome trace output path for `--profile=chrome`.
const CHROME_TRACE_PATH: &str = "trace.chrome.json";

/// Start recording when a `--profile` mode was requested.
fn start_profile(mode: Option<ProfileMode>) {
    if mode.is_some() {
        obs::enable();
    }
}

/// Drain the recorder and emit the profile: text and JSON go to stderr so
/// the report on stdout stays byte-identical; chrome mode writes a trace
/// file for `about:tracing` / Perfetto.
fn emit_profile(mode: Option<ProfileMode>) -> Result<(), Error> {
    let Some(mode) = mode else { return Ok(()) };
    let profile = obs::take();
    obs::disable();
    match mode {
        ProfileMode::Chrome => {
            std::fs::write(CHROME_TRACE_PATH, cli::render_profile(&profile, mode))
                .map_err(|e| Error::io(CHROME_TRACE_PATH, &e))?;
            eprintln!(
                "profile: chrome trace written to {CHROME_TRACE_PATH} \
                 (load in about:tracing or ui.perfetto.dev)"
            );
        }
        mode => eprint!("{}", cli::render_profile(&profile, mode)),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            if e.kind() == ErrorKind::Usage {
                eprintln!("error: {e}\n\n{USAGE}");
            } else {
                eprintln!("error: {e}");
            }
            std::process::exit(e.exit_code());
        }
    }
}

fn read(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::io(path, &e))
}

fn run(args: &[String]) -> Result<i32, Error> {
    match parse_args(args)? {
        Command::Help => print!("{USAGE}"),
        Command::Machines { json } => print!("{}", run_machines(json)),
        Command::Validate(opts) => {
            start_profile(opts.profile);
            let outcome = run_validate(&opts)?;
            print!("{}", outcome.output);
            emit_profile(opts.profile)?;
            if !outcome.gate_failures.is_empty() {
                for gate in &outcome.gate_failures {
                    eprintln!("gate failed: {gate}");
                }
                return Ok(1);
            }
        }
        Command::Lint(opts) => {
            // Resolve the shared machine selection by hand: model refs
            // build registry machines, file refs are read once so their
            // raw JSON can feed the machine-file lints.
            let mut models: Vec<uarch::Machine> = Vec::new();
            let mut files: Vec<(String, String)> = Vec::new();
            for r in &opts.sel.refs {
                match r {
                    MachineRef::Model(id) => models.push(
                        uarch::registry::machine(id).expect("registry id validated at parse"),
                    ),
                    MachineRef::File(p) => files.push((p.clone(), read(p)?)),
                }
            }
            let asm = match opts.path.as_deref() {
                Some(p) => Some(read(p)?),
                None => None,
            };
            // Machine files that import; a failure is reported by the
            // machine-file lint below, not here.
            let imported: Vec<(String, uarch::Machine)> = files
                .iter()
                .filter_map(|(p, j)| uarch::Machine::from_json(j).ok().map(|m| (p.clone(), m)))
                .collect();
            let mut targets: Vec<LintTarget> = Vec::new();
            for (p, j) in &files {
                targets.push(LintTarget::MachineFile { label: p, json: j });
            }
            match (asm.as_deref(), opts.path.as_deref()) {
                (Some(asm), Some(label)) => {
                    // The machine used for kernel lints: an edited machine
                    // file takes precedence over a registry model.
                    match imported.last().map(|(_, m)| m).or(models.last()) {
                        Some(machine) => targets.push(LintTarget::Kernel {
                            label,
                            machine,
                            asm,
                            sim: opts.sim,
                        }),
                        // The machine-file lint above already reports why.
                        None => eprintln!(
                            "note: skipping kernel lints — the machine file did not import"
                        ),
                    }
                }
                _ if files.is_empty() && !opts.admission && !opts.corpus => {
                    if models.is_empty() {
                        models = uarch::all_machines();
                    }
                    targets.extend(models.iter().map(LintTarget::Machine));
                }
                _ => {}
            }
            if opts.admission {
                targets.extend(cli::admission_targets(models.clone(), &imported));
            }
            let precomputed = if opts.corpus {
                let grid: Vec<uarch::Machine> = if models.is_empty() && imported.is_empty() {
                    uarch::all_machines()
                } else {
                    models
                        .iter()
                        .cloned()
                        .chain(imported.iter().map(|(_, m)| m.clone()))
                        .collect()
                };
                engine::lint_corpus_machines(&grid, opts.threads, None)
            } else {
                Vec::new()
            };
            let baseline = match opts.baseline.as_deref() {
                Some(p) => Some(read(p)?),
                None => None,
            };
            let policy = cli::LintPolicy {
                json: opts.json,
                sarif: opts.sarif,
                strict: opts.strict,
                deny: opts.deny,
                allow: opts.allow,
                baseline,
            };
            let outcome = cli::run_lint_with(&targets, precomputed, &policy);
            print!("{}", outcome.output);
            if let Some(p) = opts.write_baseline.as_deref() {
                let mut body = outcome.fingerprints.join("\n");
                if !body.is_empty() {
                    body.push('\n');
                }
                std::fs::write(p, body).map_err(|e| Error::io(p, &e))?;
                eprintln!(
                    "baseline: {} fingerprint(s) written to {p}",
                    outcome.fingerprints.len()
                );
                return Ok(0);
            }
            return Ok(outcome.exit_code);
        }
        Command::Export { sel } => {
            print!("{}", sel.resolve_one()?.to_json());
        }
        Command::Ports { sel } => {
            let m = sel.resolve_one()?;
            print!(
                "{}",
                m.port_model
                    .render(&format!("{} port model ({})", m.name, m.part))
            );
        }
        Command::StoreBench {
            sel,
            nt,
            json,
            threads,
            profile,
        } => {
            let machines = sel.resolve_or_trio()?;
            start_profile(profile);
            let out = match threads {
                Some(n) => rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("thread pool builds")
                    .install(|| cli::run_storebench(&machines, nt, json)),
                None => cli::run_storebench(&machines, nt, json),
            };
            print!("{out}");
            emit_profile(profile)?;
        }
        Command::Analyze {
            path,
            sel,
            flags,
            json,
        } => {
            let asm = read(&path)?;
            let m = sel.resolve_one()?;
            start_profile(flags.profile);
            let out = if json {
                run_analyze_json(&m, &path, &asm, flags)?
            } else {
                run_analyze(&m, &asm, flags).map_err(|e| e.with_context(path))?
            };
            print!("{out}");
            emit_profile(flags.profile)?;
        }
        Command::Explain { kernel, sel, sim } => {
            let m = sel.resolve_one()?;
            print!("{}", run_explain(&m, &kernel, sim)?);
        }
        Command::Serve(opts) => {
            // Fail on an unresolvable default selection up front rather
            // than per-request (a per-request selection still resolves
            // lazily on the wire).
            if !opts.sel.is_empty() {
                opts.sel.resolve_one()?;
            }
            cli::serve::run_serve(opts, &mut std::io::stdout())?;
        }
        Command::Top(mut opts) => {
            // Clear-and-redraw only when a human is watching; piped
            // output appends frames like a log.
            use std::io::IsTerminal;
            opts.clear = std::io::stdout().is_terminal();
            cli::top::run_top(&opts, &mut std::io::stdout())?;
        }
    }
    Ok(0)
}
