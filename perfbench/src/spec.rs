//! `spec-screen`: a seeded stream of screening requests over the nine
//! shipped `.specl` sources, and the `specl` / `core::screening` section of
//! the traced pass.
//!
//! The stream is made of blocks of [`BLOCK`] requests in a seeded order.
//! Every block holds the same kinds, so every stretch of whole blocks
//! costs the same work:
//! * valid (9/15): each source once; compile it from text (a remedy patch
//!   is merged onto its base spec with `specl::apply_overlay` first) and
//!   check it to a verdict with BFS, paths on;
//! * lattice (2/15): `sweep_timer_scales` over `specs/fivegs`, 14 points;
//! * rejected edit (4/15): compile a seeded truncation or single-byte
//!   deletion of a source; the front end must reject it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cnetverifier::models::attach::AttachModel;
use cnetverifier::models::crosssys_lu::CrossSysLuModel;
use cnetverifier::{props, ScreenBudget};
use mck::{Checker, Model, SearchStrategy};
use specl::{Diagnostic, SpecModel};

use crate::spans::Tracer;
use crate::statespace::successor_ns;
use crate::util::{guarded, quantile, splitmix, Rng, Tally};
use crate::{Measured, Values, SETUP_REPS};

/// Requests per block of the stream: every source once, two lattice
/// sweeps and four rejected edits.
pub const BLOCK: usize = 15;
/// Blocks per `work_per_s` sample.
const BATCH_BLOCKS: usize = 4;
/// Requests the traced pass runs when `spec-screen` is the workload.
pub const TRACED_REQUESTS: usize = 100 * BLOCK;
/// Requests the traced pass runs for the other workloads.
pub const COMPACT_REQUESTS: usize = 10 * BLOCK;
/// Rejected edits prepared per run.
const MUTANTS: usize = 64;
const GOLDEN: &str = "crates/bench/golden/fivegs_smoke.txt";

/// (file under `specs/`, base source index for a remedy patch).
const FILES: [(&str, Option<usize>); 9] = [
    ("attach_s2.specl", None),
    ("attach_reliable.specl", None),
    ("crosssys_lu_s6.specl", None),
    ("fivegs/attach_timer_race_s10.specl", None),
    ("fivegs/eps_fallback_s9.specl", None),
    ("fivegs/fiveg_registration_s7.specl", None),
    ("fivegs/nsa_secondary_s8.specl", None),
    ("remedies/attach_s2__reliable_shim.specl", Some(0)),
    ("remedies/crosssys_lu_s6__mme_recovery.specl", Some(2)),
];

/// Unique states, verdict and BFS witness length against one property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub states: u64,
    pub violated: bool,
    pub witness: Option<usize>,
}

/// What a valid request must answer.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// States, verdict and witness length.
    Exact(Answer),
    /// Verdict only (the S6 remedy against `CrossSysLuModel::remedied()`).
    Verdict(bool),
}

struct Source {
    file: &'static str,
    text: String,
    base: Option<usize>,
    property: String,
    expect: Expect,
}

struct Mutant {
    src: usize,
    text: String,
    /// The first diagnostic the set-up saw, or `None` if it panicked.
    diag: Option<String>,
}

/// Every input of the workload, built by the set-up.
pub struct Corpus {
    sources: Vec<Source>,
    mutants: Vec<Mutant>,
    fivegs: PathBuf,
    lattice: Vec<GoldenSpec>,
}

/// One spec's table in the golden `--exp fivegs` output.
struct GoldenSpec {
    file: String,
    property: String,
    /// (point label, answer), base point first.
    points: Vec<(String, Answer)>,
}

#[derive(Clone, Copy, Debug)]
pub enum Req {
    Valid(usize),
    Lattice,
    Reject(usize),
}

/// Request `i` of the stream for `seed`: slot `i % BLOCK` of block
/// `i / BLOCK`, whose order and rejected edits the seed picks. With no
/// rejected edits to pick, their slots check a seeded source instead.
pub fn request(seed: u64, i: usize, mutants: usize) -> Req {
    let (block, slot) = (i / BLOCK, i % BLOCK);
    let mut rng = Rng::new(splitmix(seed) ^ block as u64);
    let mut kinds: [Req; BLOCK] = std::array::from_fn(|k| match k {
        0..=8 => Req::Valid(k),
        9 | 10 => Req::Lattice,
        _ if mutants > 0 => Req::Reject(rng.below(mutants as u64) as usize),
        _ => Req::Valid(rng.below(FILES.len() as u64) as usize),
    });
    for k in (1..BLOCK).rev() {
        kinds.swap(k, rng.below(k as u64 + 1) as usize);
    }
    kinds[slot]
}

fn answer<M>(model: M, property: &str) -> Result<Answer, String>
where
    M: Model + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
{
    let r = Checker::new(model).strategy(SearchStrategy::Bfs).run();
    if !r.complete {
        return Err(format!("{property}: search incomplete"));
    }
    let v = r.violation(property);
    Ok(Answer {
        states: r.stats.unique_states,
        violated: v.is_some(),
        witness: v.map(|v| v.path.len()),
    })
}

fn diag(d: &Diagnostic, text: &str) -> Result<String, String> {
    if d.span.start > text.len() || d.message.is_empty() {
        return Err(format!("malformed diagnostic {d:?}"));
    }
    Ok(format!("{}:{}: {}", d.span.line, d.span.col, d.message))
}

/// Parse the golden `--exp fivegs` lattice tables.
fn golden_lattice(text: &str) -> Result<Vec<GoldenSpec>, String> {
    let mut out: Vec<GoldenSpec> = Vec::new();
    for line in text.lines() {
        if line.starts_with("Candidate defects") {
            break;
        }
        if line.starts_with("spec ") {
            let file = line
                .split('<')
                .nth(1)
                .and_then(|r| r.split('>').next())
                .ok_or_else(|| format!("golden: bad header `{line}`"))?;
            let property = line
                .rsplit("against ")
                .next()
                .ok_or_else(|| format!("golden: bad header `{line}`"))?;
            out.push(GoldenSpec {
                file: file.to_string(),
                property: property.trim().to_string(),
                points: Vec::new(),
            });
            continue;
        }
        let t = line.trim_start();
        if !line.starts_with("  ") || t.starts_with("scale point") || t.starts_with("->") {
            continue;
        }
        let toks: Vec<&str> = t.split_whitespace().collect();
        let n = toks.len();
        let (Some(last), true) = (out.last_mut(), n >= 4) else {
            return Err(format!("golden: bad point line `{line}`"));
        };
        let states = toks[n - 3]
            .parse()
            .map_err(|_| format!("golden: `{line}`"))?;
        last.points.push((
            toks[..n - 3].join(" "),
            Answer {
                states,
                violated: toks[n - 2] == "violated",
                witness: toks[n - 1].parse().ok(),
            },
        ));
    }
    if out.is_empty() {
        return Err("golden: no lattice tables".into());
    }
    Ok(out)
}

/// Compile `text` the way a request does: a remedy patch is merged onto
/// its base spec and the merge is checked and lowered.
fn front_end(text: &str, base: Option<&str>) -> Result<SpecModel, String> {
    let Some(base) = base else {
        return specl::compile(text).map_err(|ds| match ds.first() {
            Some(d) => diag(d, text).unwrap_or_else(|e| e),
            None => "rejected without a diagnostic".into(),
        });
    };
    let base = specl::parse(base).map_err(|d| format!("base: {}", d.message))?;
    let patch = specl::parse(text).map_err(|d| diag(&d, text).unwrap_or_else(|e| e))?;
    let merged = specl::apply_overlay(&base, &patch);
    specl::check(&merged).map_err(|ds| match ds.first() {
        Some(d) => format!("merged: {}", d.message),
        None => "merged spec rejected without a diagnostic".into(),
    })?;
    Ok(specl::lower(&merged))
}

impl Corpus {
    /// Read the nine sources and the golden file, compute the hand-model
    /// answers, and prepare the seeded rejected edits.
    pub fn load(root: &Path, seed: u64, tally: &mut Tally) -> Result<Corpus, String> {
        let specs = root.join("specs");
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let golden = golden_lattice(&read(&root.join(GOLDEN))?)?;
        let hand_s2 = answer(AttachModel::paper(), props::PACKET_SERVICE_OK)?;
        let hand_reliable = answer(
            AttachModel::with_reliable_transport(),
            props::PACKET_SERVICE_OK,
        )?;
        let hand_s6 = answer(CrossSysLuModel::paper(), props::MM_OK)?;
        let hand_s6_remedied = answer(CrossSysLuModel::remedied(), props::MM_OK)?;
        let mut sources = Vec::new();
        for (file, base) in FILES {
            let text = read(&specs.join(file))?;
            let (property, expect) = match file {
                "attach_s2.specl" => (props::PACKET_SERVICE_OK, Expect::Exact(hand_s2)),
                "attach_reliable.specl" => (props::PACKET_SERVICE_OK, Expect::Exact(hand_reliable)),
                "crosssys_lu_s6.specl" => (props::MM_OK, Expect::Exact(hand_s6)),
                "remedies/attach_s2__reliable_shim.specl" => {
                    (props::PACKET_SERVICE_OK, Expect::Exact(hand_reliable))
                }
                "remedies/crosssys_lu_s6__mme_recovery.specl" => {
                    (props::MM_OK, Expect::Verdict(hand_s6_remedied.violated))
                }
                _ => {
                    let name = file.trim_start_matches("fivegs/");
                    let golden = golden
                        .iter()
                        .find(|g| g.file == name)
                        .ok_or_else(|| format!("{file}: not in the golden lattice"))?;
                    let base_point = golden
                        .points
                        .first()
                        .ok_or_else(|| format!("{file}: no golden points"))?;
                    (golden.property.as_str(), Expect::Exact(base_point.1))
                }
            };
            sources.push(Source {
                file,
                text,
                base,
                property: property.to_string(),
                expect,
            });
        }
        let mut corpus = Corpus {
            sources,
            mutants: Vec::new(),
            fivegs: specs.join("fivegs"),
            lattice: golden,
        };
        corpus.mutants = corpus.make_mutants(seed, tally);
        Ok(corpus)
    }

    fn base_text(&self, src: usize) -> Option<&str> {
        self.sources[src]
            .base
            .map(|b| self.sources[b].text.as_str())
    }

    /// Seeded truncations and single-character deletions that the front end
    /// rejects. An edit that compiles is not a rejected edit and is
    /// skipped; an edit that panics is kept (and fails every time it is
    /// requested).
    fn make_mutants(&self, seed: u64, tally: &mut Tally) -> Vec<Mutant> {
        let mut rng = Rng::new(seed ^ 0xed17);
        let mut out = Vec::new();
        for _ in 0..64 * MUTANTS {
            if out.len() == MUTANTS {
                break;
            }
            let src = rng.below(FILES.len() as u64) as usize;
            let text = &self.sources[src].text;
            let at = rng.below(text.len() as u64) as usize;
            if !text.is_char_boundary(at) {
                continue;
            }
            let edited = if rng.below(2) == 0 {
                text[..at].to_string()
            } else {
                let mut t = text.clone();
                t.remove(at);
                t
            };
            match guarded("mutant compile", || front_end(&edited, self.base_text(src))) {
                Ok(Ok(_)) => {}
                Ok(Err(d)) => out.push(Mutant {
                    src,
                    text: edited,
                    diag: Some(d),
                }),
                Err(panic) => {
                    tally.op(Err(format!("{}: {panic}", self.sources[src].file)));
                    out.push(Mutant {
                        src,
                        text: edited,
                        diag: None,
                    });
                }
            }
        }
        out
    }

    pub fn request(&self, seed: u64, i: usize) -> Req {
        request(seed, i, self.mutants.len())
    }

    fn check_valid(&self, src: usize, got: Answer) -> Result<(), String> {
        let s = &self.sources[src];
        let ok = match s.expect {
            Expect::Exact(want) => got == want,
            Expect::Verdict(v) => got.violated == v,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: answered {got:?}, expected {:?}",
                s.file, s.expect
            ))
        }
    }

    fn check_reject(&self, m: usize, got: Result<SpecModel, String>) -> Result<(), String> {
        let mu = &self.mutants[m];
        match (got, &mu.diag) {
            (Err(d), Some(want)) if d == *want => Ok(()),
            (Err(d), want) => Err(format!(
                "{} edit: diagnostic `{d}`, set-up saw {want:?}",
                self.sources[mu.src].file
            )),
            (Ok(_), _) => Err(format!("{} edit: accepted", self.sources[mu.src].file)),
        }
    }

    fn check_lattice(&self, got: &[cnetverifier::TimingLattice]) -> Result<u64, String> {
        if got.len() != self.lattice.len() {
            return Err(format!(
                "lattice: {} specs, golden has {}",
                got.len(),
                self.lattice.len()
            ));
        }
        let mut points = 0;
        for (lat, want) in got.iter().zip(&self.lattice) {
            let have: Vec<(String, Answer)> = lat
                .points
                .iter()
                .map(|p| {
                    (
                        p.label.clone(),
                        Answer {
                            states: p.states,
                            violated: p.violated,
                            witness: p.witness,
                        },
                    )
                })
                .collect();
            if lat.file != want.file || have != want.points {
                return Err(format!(
                    "lattice {}: {have:?} differs from the golden",
                    lat.file
                ));
            }
            points += have.len() as u64;
        }
        Ok(points)
    }

    /// Run one request untraced. Returns the states the check reached
    /// (valid), the lattice points (lattice) or 0 (rejected edit).
    pub fn run(&self, req: Req) -> Result<u64, String> {
        match req {
            Req::Valid(i) => {
                let s = &self.sources[i];
                let model = front_end(&s.text, self.base_text(i))?;
                let got = answer(model, &s.property)?;
                self.check_valid(i, got).map(|()| got.states)
            }
            Req::Lattice => {
                let got = cnetverifier::sweep_timer_scales(&self.fivegs, ScreenBudget::default())?;
                self.check_lattice(&got)
            }
            Req::Reject(m) => {
                let mu = &self.mutants[m];
                self.check_reject(m, front_end(&mu.text, self.base_text(mu.src)))
                    .map(|()| 0)
            }
        }
    }

    /// The same request with a span around every layer call. The lexer
    /// runs once on its own before the parser (which lexes again), so
    /// parse self time is the parse span minus the lex span.
    fn run_traced(&self, tr: &mut Tracer, req: Req, acc: &mut SpecAcc) -> Result<u64, String> {
        let compile = |tr: &mut Tracer, acc: &mut SpecAcc, text: &str, src: usize| {
            let mut parse = |tr: &mut Tracer, t: &str| {
                acc.bytes += t.len() as u64;
                let _ = tr.span("specl.lex", |_| specl::lexer::lex(t));
                tr.span("specl.parse", |_| specl::parse(t))
            };
            let patch = parse(tr, text).map_err(|d| diag(&d, text).unwrap_or_else(|e| e))?;
            let spec = match self.base_text(src) {
                None => patch,
                Some(b) => {
                    let base = parse(tr, b).map_err(|d| format!("base: {}", d.message))?;
                    tr.span("specl.overlay", |_| specl::apply_overlay(&base, &patch))
                }
            };
            tr.span("specl.sema", |_| specl::check(&spec))
                .map_err(|ds| match ds.first() {
                    Some(d) if self.base_text(src).is_some() => format!("merged: {}", d.message),
                    Some(d) => diag(d, text).unwrap_or_else(|e| e),
                    None => "rejected without a diagnostic".into(),
                })?;
            Ok::<SpecModel, String>(tr.span("specl.lower", |_| specl::lower(&spec)))
        };
        tr.span("spec.request", |tr| match req {
            Req::Valid(i) => {
                let s = &self.sources[i];
                let model = compile(tr, acc, &s.text, i)?;
                let got = tr.span("mck.check", |_| answer(model, &s.property))?;
                acc.checks += 1;
                acc.states += got.states;
                self.check_valid(i, got).map(|()| got.states)
            }
            Req::Lattice => {
                let got = tr.span("core.lattice", |_| {
                    cnetverifier::sweep_timer_scales(&self.fivegs, ScreenBudget::default())
                })?;
                let points = self.check_lattice(&got)?;
                acc.points += points;
                Ok(points)
            }
            Req::Reject(m) => {
                let mu = &self.mutants[m];
                acc.rejects += 1;
                let got = compile(tr, acc, &mu.text, mu.src);
                self.check_reject(m, got).map(|()| 0)
            }
        })
    }

    /// Every source that compiles, as a model (for the interpreter probe).
    fn models(&self) -> Vec<SpecModel> {
        (0..self.sources.len())
            .filter_map(|i| front_end(&self.sources[i].text, self.base_text(i)).ok())
            .collect()
    }
}

#[derive(Default)]
struct SpecAcc {
    bytes: u64,
    checks: u64,
    states: u64,
    points: u64,
    rejects: u64,
}

fn is_verdict(req: Req) -> bool {
    !matches!(req, Req::Reject(_))
}

/// The timed, untraced run.
pub fn measure(root: &Path, seed: u64, seconds: f64, tally: &mut Tally) -> Measured {
    let mut m = Measured::new("requests");
    let mut corpus = None;
    // Set-up: load the corpus, then warm up with one request of each kind
    // and every source, SETUP_REPS times.
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let c = guarded("spec set-up", || Corpus::load(root, seed, tally)).and_then(|c| c);
        match c {
            Ok(c) => {
                let warm = (0..FILES.len())
                    .map(Req::Valid)
                    .chain([Req::Lattice, Req::Reject(0)])
                    .filter(|r| !matches!(r, Req::Reject(_)) || !c.mutants.is_empty());
                for req in warm {
                    tally.op(guarded("spec warm-up", || c.run(req))
                        .and_then(|r| r)
                        .map(drop));
                }
                corpus = Some(c);
            }
            Err(e) => tally.op(Err(e)),
        }
        m.set_up(t0.elapsed().as_secs_f64(), 3);
    }
    let Some(corpus) = corpus else { return m };
    let (mut verdict_ms, mut reject_ms) = (Vec::new(), Vec::new());
    let mut counts = CountAcc::default();
    // A stretch is a batch of whole blocks; the run ends on a batch
    // boundary, so every latency has its batch's probe factor.
    let batch_len = BATCH_BLOCKS * BLOCK;
    let start = Instant::now();
    let mut busy = 0.0;
    let mut batch = (Instant::now(), Vec::with_capacity(batch_len));
    let mut i = 0usize;
    while i < TRACED_REQUESTS
        || !i.is_multiple_of(batch_len)
        || start.elapsed().as_secs_f64() < seconds
    {
        let req = corpus.request(seed, i);
        let t0 = Instant::now();
        let out = guarded("spec request", || corpus.run(req)).and_then(|r| r);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        batch.1.push(ms);
        if is_verdict(req) {
            verdict_ms.push(ms);
        } else {
            reject_ms.push(ms);
        }
        if let (Ok(v), true) = (&out, i < TRACED_REQUESTS) {
            counts.add(req, *v);
        }
        tally.op(out.map(drop));
        i += 1;
        if batch.1.len() == batch_len {
            let secs = batch.0.elapsed().as_secs_f64();
            busy += secs;
            m.stretch(batch_len as f64 / secs, &batch.1, 1);
            batch.1.clear();
            batch.0 = Instant::now();
        }
    }
    m.counts = counts.metrics(TRACED_REQUESTS);
    let n = |v: &Vec<f64>| v.len();
    m.extra = vec![
        (
            "verdicts_per_s",
            "1/s",
            verdict_ms.len() as f64 / busy,
            n(&verdict_ms),
        ),
        (
            "verdict_p50_ms",
            "ms",
            quantile(&verdict_ms, 0.5),
            n(&verdict_ms),
        ),
        (
            "verdict_p99_ms",
            "ms",
            quantile(&verdict_ms, 0.99),
            n(&verdict_ms),
        ),
        (
            "reject_p50_us",
            "us",
            quantile(&reject_ms, 0.5) * 1e3,
            n(&reject_ms),
        ),
        (
            "reject_p99_us",
            "us",
            quantile(&reject_ms, 0.99) * 1e3,
            n(&reject_ms),
        ),
    ];
    m
}

/// Count metrics over the first traced-size prefix of the stream.
#[derive(Default)]
struct CountAcc {
    checks: u64,
    states: u64,
    rejects: u64,
    points: u64,
    lattices: u64,
}

impl CountAcc {
    fn add(&mut self, req: Req, v: u64) {
        match req {
            Req::Valid(_) => {
                self.checks += 1;
                self.states += v;
            }
            Req::Lattice => {
                self.lattices += 1;
                self.points += v;
            }
            Req::Reject(_) => self.rejects += 1,
        }
    }

    fn metrics(&self, n: usize) -> Vec<(&'static str, f64)> {
        vec![
            (
                "mck.check.states_per_request",
                self.states as f64 / self.checks.max(1) as f64,
            ),
            ("specl.reject_share", self.rejects as f64 / n as f64),
            (
                "core.lattice.points",
                self.points as f64 / self.lattices.max(1) as f64,
            ),
        ]
    }
}

/// The `specl` / `core::screening` section of the traced pass over the
/// first `n` requests of the stream. Returns the traced wall in seconds.
pub fn layers(
    tr: &mut Tracer,
    corpus: &Corpus,
    seed: u64,
    n: usize,
    tally: &mut Tally,
    out: &mut Values,
) -> f64 {
    let mut acc = SpecAcc::default();
    let mut counts = CountAcc::default();
    let t0 = Instant::now();
    for i in 0..n {
        let req = corpus.request(seed, i);
        tr.request(1_000 + i as u64);
        let r = guarded("traced spec request", || {
            corpus.run_traced(tr, req, &mut acc)
        })
        .and_then(|r| r);
        if let Ok(v) = &r {
            counts.add(req, *v);
        }
        tally.op(r.map(drop));
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let st = tr.self_times();
    let ns = |name: &str| st.get(name).map_or(0.0, |&(t, _)| t as f64);
    let per = |name: &str| {
        st.get(name)
            .map_or(0.0, |&(t, c)| t as f64 / c.max(1) as f64)
    };
    let bytes = acc.bytes.max(1) as f64;
    out.set("specl.lex.ns_per_byte", ns("specl.lex") / bytes);
    out.set(
        "specl.parse.ns_per_byte",
        (ns("specl.parse") - ns("specl.lex")) / bytes,
    );
    out.set("specl.sema.us_per_spec", per("specl.sema") / 1e3);
    out.set("specl.lower.us_per_spec", per("specl.lower") / 1e3);
    out.set("specl.overlay.us_per_merge", per("specl.overlay") / 1e3);
    out.set(
        "mck.check.us_per_request",
        ns("mck.check") / acc.checks.max(1) as f64 / 1e3,
    );
    out.set(
        "core.lattice.us_per_point",
        ns("core.lattice") / acc.points.max(1) as f64 / 1e3,
    );
    for (k, v) in counts.metrics(n) {
        out.set(k, v);
    }
    let models = corpus.models();
    tally.expect_eq("compiled sources", models.len(), FILES.len());
    let interp = tr.span("specl.interp.probe", |_| {
        models
            .iter()
            .map(|m| successor_ns(m, seed, 512, 20_000))
            .sum::<f64>()
            / models.len().max(1) as f64
    });
    out.set("specl.interp.ns_per_transition", interp);
    traced_s
}

/// Trace overhead: the traced requests [`layers`] ran against the same
/// requests untraced.
pub fn overhead(corpus: &Corpus, seed: u64, n: usize, traced_s: f64, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        let req = corpus.request(seed, i);
        tally.op(guarded("spec request", || corpus.run(req))
            .and_then(|r| r)
            .map(drop));
    }
    traced_s / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lattice_parses_all_fourteen_points() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join(GOLDEN)).unwrap();
        let lat = golden_lattice(&text).unwrap();
        assert_eq!(lat.len(), 4);
        assert_eq!(lat.iter().map(|l| l.points.len()).sum::<usize>(), 14);
        assert_eq!(lat[0].property, "PacketService_OK");
    }

    #[test]
    fn stream_mixes_all_kinds() {
        for block in 0..8 {
            let reqs: Vec<Req> = (block * BLOCK..(block + 1) * BLOCK)
                .map(|i| request(1, i, 10))
                .collect();
            let lattices = reqs.iter().filter(|r| matches!(r, Req::Lattice)).count();
            let rejects = reqs.iter().filter(|r| matches!(r, Req::Reject(_))).count();
            let mut valid: Vec<usize> = reqs
                .iter()
                .filter_map(|r| match r {
                    Req::Valid(v) => Some(*v),
                    _ => None,
                })
                .collect();
            valid.sort_unstable();
            assert_eq!((lattices, rejects), (2, 4));
            assert_eq!(valid, (0..FILES.len()).collect::<Vec<_>>());
        }
    }
}
