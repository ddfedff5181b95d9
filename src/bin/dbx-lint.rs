//! `dbx-lint` — static verifier front-end for EIS programs.
//!
//! Two modes:
//!
//! * `dbx-lint --kernels` lints every built-in kernel template (set
//!   operations and merge sort, scalar and EIS variants) of each processor
//!   model of the paper, bound to the runner's data layouts at 0, 1 and
//!   256 elements and at the largest size that fits local memory.
//! * `dbx-lint [--model NAME] file.s ...` assembles each file with the
//!   model's extension mnemonics available and lints the result.
//!
//! Exit status is non-zero when any error-severity diagnostic fires, or,
//! with `--strict`, when any diagnostic fires at all.
//!
//! `--format text|json|sarif` selects the report shape: the default
//! human-readable text, a compact per-unit JSON digest, or a SARIF 2.1.0
//! document for code-scanning consumers. JSON and SARIF go to stdout;
//! the summary line moves to stderr so the document stays parseable.

use std::process::ExitCode;

use dbasip::analysis::{analyze, sarif, Diagnostic, Severity};
use dbasip::asm::Assembler;
use dbasip::cpu::ext::Extension;
use dbasip::cpu::{Program, SimError};
use dbasip::dbisa::configs::ProcModel;
use dbasip::dbisa::datapath::SetOpKind;
use dbasip::dbisa::kernels::{hwset, hwsort, scalar};
use dbasip::dbisa::ops::DbExtension;
use dbasip::dbisa::runner::{set_layout, sort_layout, sort_model};
use dbasip::observe::json::Json;

/// Report shape selected with `--format`.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    strict: bool,
    kernels: bool,
    model: ProcModel,
    format: Format,
    files: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dbx-lint [--strict] [--format FMT] --kernels\n       \
         dbx-lint [--strict] [--format FMT] [--model MODEL] FILE.s ...\n\n\
         MODEL: mini108 | dba1 | dba2 | dba1eis | dba2eis (default: dba2eis)\n\
         FMT:   text | json | sarif (default: text)"
    );
    std::process::exit(2);
}

fn parse_model(name: &str) -> Option<ProcModel> {
    match name {
        "mini108" => Some(ProcModel::Mini108),
        "dba1" => Some(ProcModel::Dba1Lsu),
        "dba2" => Some(ProcModel::Dba2Lsu),
        "dba1eis" => Some(ProcModel::Dba1LsuEis { partial: true }),
        "dba2eis" => Some(ProcModel::Dba2LsuEis { partial: true }),
        _ => None,
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        strict: false,
        kernels: false,
        model: ProcModel::Dba2LsuEis { partial: true },
        format: Format::Text,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strict" => opts.strict = true,
            "--kernels" => opts.kernels = true,
            "--model" => match args.next().as_deref().and_then(parse_model) {
                Some(m) => opts.model = m,
                None => usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                Some("sarif") => opts.format = Format::Sarif,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            _ => usage(),
        }
    }
    if opts.kernels != opts.files.is_empty() {
        usage();
    }
    opts
}

/// Per-unit findings: one entry per linted kernel or file.
type Units = Vec<(String, Vec<Diagnostic>)>;

/// Lints one program on one model into the unit list.
fn lint(label: &str, program: &Program, model: ProcModel, units: &mut Units) {
    let cfg = model.cpu_config();
    let ext = model.wiring().map(DbExtension::new);
    let ext_ref = ext.as_ref().map(|e| e as &dyn Extension);
    let diags = analyze(program, ext_ref, &cfg);
    units.push((label.to_string(), diags));
}

fn report(label: &str, diags: &[Diagnostic]) {
    if diags.is_empty() {
        println!("{label}: clean");
        return;
    }
    println!("{label}:");
    for d in diags {
        println!("  {d}");
    }
}

fn count(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    (errors, diags.len() - errors)
}

/// Compact machine-readable digest: per-unit diagnostic arrays plus
/// totals, in the same insertion-ordered writer SARIF export uses.
fn to_json(units: &Units) -> Json {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let rows: Vec<Json> = units
        .iter()
        .map(|(label, diags)| {
            let (e, w) = count(diags);
            errors += e;
            warnings += w;
            let ds: Vec<Json> = diags
                .iter()
                .map(|d| {
                    Json::obj([
                        (
                            "severity",
                            Json::Str(
                                match d.severity {
                                    Severity::Warning => "warning",
                                    Severity::Error => "error",
                                }
                                .to_string(),
                            ),
                        ),
                        ("rule", Json::Str(d.rule.code().to_string())),
                        ("pc", Json::Num(d.pc as f64)),
                        ("message", Json::Str(d.message.clone())),
                    ])
                })
                .collect();
            Json::obj([
                ("unit", Json::Str(label.clone())),
                ("diagnostics", Json::Arr(ds)),
            ])
        })
        .collect();
    Json::obj([
        ("tool", Json::Str("dbx-lint".to_string())),
        ("units", Json::Arr(rows)),
        ("errors", Json::Num(errors as f64)),
        ("warnings", Json::Num(warnings as f64)),
    ])
}

/// Element counts each kernel template is bound at before linting: empty,
/// one, a representative 256, and the largest count `fits` accepts (up to
/// 65536 for the cached core, whose data lives in system memory).
fn lint_sizes(fits: impl Fn(u32) -> bool) -> Vec<u32> {
    let (mut lo, mut hi) = (0u32, 1 << 16);
    while lo < hi {
        let mid = hi - (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let mut sizes = vec![0, 1, 256, lo];
    sizes.retain(|&n| fits(n));
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Lints `template` bound to each `(n, layout parameters)` — the prefix
/// the template declares (the scalar sort takes three of the four sort
/// parameters); a binding the template rejects counts as a build error.
fn lint_bound(
    label: &str,
    template: Result<Program, SimError>,
    bindings: Vec<(u32, Vec<u32>)>,
    model: ProcModel,
    units: &mut Units,
) -> usize {
    let template = match template {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{label}: failed to build: {e}");
            return 1;
        }
    };
    let mut build_errors = 0;
    for (n, params) in bindings {
        let label = format!("{label} n={n}");
        let declared = template.param_count().min(params.len());
        match template.bind(&params[..declared]) {
            Ok(p) => lint(&label, &p, model, units),
            Err(e) => {
                eprintln!("{label}: failed to bind: {e}");
                build_errors += 1;
            }
        }
    }
    build_errors
}

/// Lints every built-in kernel template of each synthesis model, bound
/// to the runner's own layouts ([`set_layout`], [`sort_layout`]) at the
/// sizes of [`lint_sizes`], so kernels are linted exactly as they execute.
fn lint_kernels(units: &mut Units) -> usize {
    let mut build_errors = 0;
    let kinds = [
        SetOpKind::Intersect,
        SetOpKind::Union,
        SetOpKind::Difference,
    ];
    for model in ProcModel::synthesis_models() {
        let set_sizes = lint_sizes(|n| set_layout(model, n, n).is_ok());
        let bindings: Vec<(u32, Vec<u32>)> = set_sizes
            .iter()
            .map(|&n| (n, set_layout(model, n, n).unwrap().params().to_vec()))
            .collect();
        let sample = set_layout(model, 256, 256).expect("256-element sets fit every model");
        for kind in kinds {
            let template = match model.wiring() {
                Some(w) => hwset::set_op_program(kind, &w, &sample, hwset::DEFAULT_UNROLL),
                None => scalar::set_op_program(kind, &sample),
            };
            let label = format!("{} {:?} [{}]", model.name(), kind, model.partial_label());
            build_errors += lint_bound(&label, template, bindings.clone(), model, units);
        }
        let sort_model = sort_model(model);
        // An empty sort runs no kernel; one element pads to four.
        let bindings = lint_sizes(|n| sort_layout(model, n).is_ok())
            .into_iter()
            .filter(|&n| n > 0)
            .map(|n| (n, sort_layout(model, n).unwrap().params().to_vec()))
            .collect();
        let sample = sort_layout(model, 256).expect("256 elements sort on every model");
        let template = match sort_model.wiring() {
            Some(w) => hwsort::merge_sort_program(&w, &sample).map(|(p, _)| p),
            None => scalar::merge_sort_program(sample.src, sample.dst, sample.n).map(|(p, _)| p),
        };
        let label = format!("{} sort [{}]", model.name(), model.partial_label());
        build_errors += lint_bound(&label, template, bindings, sort_model, units);
    }
    build_errors
}

fn lint_files(opts: &Options, units: &mut Units) -> usize {
    let mut build_errors = 0;
    let ext = opts.model.wiring().map(DbExtension::new);
    let ext_ref = ext.as_ref().map(|e| e as &dyn Extension);
    for f in &opts.files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{f}: cannot read: {e}");
                build_errors += 1;
                continue;
            }
        };
        let asm = match ext_ref {
            Some(x) => Assembler::with_extension(x),
            None => Assembler::new(),
        };
        match asm.assemble(&src) {
            Ok(p) => lint(f, &p, opts.model, units),
            Err(e) => {
                eprintln!("{f}: {e}");
                build_errors += 1;
            }
        }
    }
    build_errors
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut units = Units::new();
    let mut errors = if opts.kernels {
        lint_kernels(&mut units)
    } else {
        lint_files(&opts, &mut units)
    };
    let mut warnings = 0;
    for (_, diags) in &units {
        let (e, w) = count(diags);
        errors += e;
        warnings += w;
    }
    match opts.format {
        Format::Text => {
            for (label, diags) in &units {
                report(label, diags);
            }
            println!("{errors} error(s), {warnings} warning(s)");
        }
        Format::Json => {
            println!("{}", to_json(&units));
            eprintln!("{errors} error(s), {warnings} warning(s)");
        }
        Format::Sarif => {
            println!("{}", sarif::to_sarif(&units));
            eprintln!("{errors} error(s), {warnings} warning(s)");
        }
    }
    if errors > 0 || (opts.strict && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
