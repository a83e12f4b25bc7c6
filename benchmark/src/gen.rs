//! Seeded input generation: spec sources, wire request streams, malformed
//! lines, the open-loop burst schedule and the library op stream.
//!
//! Everything here is a pure function of the seed — the same seed gives
//! byte-identical inputs (`tests/harness.rs` holds that) — and the program
//! under test sees only what is generated, never the seed.

use tb_service::wire::render_submit;
use tb_spec::SpecTier;

use crate::sizing::*;

/// SplitMix64: tiny, seedable, good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the parts of a
    /// workload (sources, ops, malformed lines) draw independently.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below anything a
    /// workload mix could show).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in the inclusive range.
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The recursion a source text encodes; naming, neutral terms and
/// whitespace vary around it without changing its task tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    Fib,
    Binomial,
    /// Balanced parentheses for this many pairs.
    Paren(i64),
    /// Ternary tree sum.
    Treesum,
}

/// How a source text is dressed: identifier names and a neutral-term
/// maker (its output is appended to every spawn argument).
struct Dress<'a> {
    method: &'a str,
    p0: &'a str,
    p1: &'a str,
    neutral: &'a mut dyn FnMut() -> String,
}

fn tokens(template: Template, d: &mut Dress<'_>) -> Vec<String> {
    let (m, a, b) = (d.method, d.p0, d.p1);
    let mut t: Vec<String> = Vec::new();
    let push = |t: &mut Vec<String>, words: &[&str]| t.extend(words.iter().map(|w| w.to_string()));
    // A spawn whose arguments each end in a neutral term.
    let mut spawn = |t: &mut Vec<String>, args: &[&[&str]]| {
        push(t, &["spawn", m, "("]);
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                t.push(",".into());
            }
            push(t, arg);
            let n = (d.neutral)();
            if !n.is_empty() {
                t.push(n);
            }
        }
        push(t, &[")", ";"]);
    };
    match template {
        Template::Fib => {
            push(
                &mut t,
                &["spec", m, "(", a, ")", "{", "base", "(", a, "<", "2", ")", "{", "reduce", a, ";", "}"],
            );
            push(&mut t, &["else", "{"]);
            spawn(&mut t, &[&[a, "-", "1"]]);
            spawn(&mut t, &[&[a, "-", "2"]]);
        }
        Template::Binomial => {
            push(&mut t, &["spec", m, "(", a, ",", b, ")", "{", "base", "("]);
            push(&mut t, &[b, "==", "0", "||", b, "==", a, ")", "{", "reduce", "1", ";", "}", "else", "{"]);
            spawn(&mut t, &[&[a, "-", "1"], &[b, "-", "1"]]);
            spawn(&mut t, &[&[a, "-", "1"], &[b]]);
        }
        Template::Paren(n) => {
            let n = n.to_string();
            push(&mut t, &["spec", m, "(", a, ",", b, ")", "{", "base", "("]);
            push(&mut t, &[a, "==", &n, "&&", b, "==", &n, ")", "{", "reduce", "1", ";", "}", "else", "{"]);
            push(&mut t, &["if", "(", a, "<", &n, ")", "{"]);
            spawn(&mut t, &[&[a, "+", "1"], &[b]]);
            push(&mut t, &["}", "if", "(", b, "<", a, ")", "{"]);
            spawn(&mut t, &[&[a], &[b, "+", "1"]]);
            t.push("}".into());
        }
        Template::Treesum => {
            push(&mut t, &["spec", m, "(", a, ",", b, ")", "{", "base", "(", a, "<", "1", ")", "{"]);
            push(&mut t, &["reduce", b, ";", "}", "else", "{"]);
            for child in ["1", "2", "3"] {
                spawn(&mut t, &[&[a, "-", "1"], &["3", "*", b, "+", child]]);
            }
        }
    }
    push(&mut t, &["}", "}"]);
    t
}

/// Join tokens with blanks, spreading extra blanks over the gaps until the
/// text is `pad_to` bytes long.
fn join(tokens: &[String], pad_to: usize, rng: Option<&mut Rng>) -> String {
    let base: usize = tokens.iter().map(String::len).sum::<usize>() + tokens.len() - 1;
    let extra = pad_to.saturating_sub(base);
    let gaps = tokens.len() - 1;
    let mut extras = vec![0usize; gaps];
    if let (Some(rng), true) = (rng, extra > 0) {
        let weights: Vec<u64> = (0..gaps).map(|_| rng.below(16)).collect();
        let total: u64 = weights.iter().sum::<u64>().max(1);
        let mut given = 0;
        for (e, w) in extras.iter_mut().zip(&weights) {
            *e = (extra as u64 * w / total) as usize;
            given += *e;
        }
        extras[gaps - 1] += extra - given;
    }
    let mut out = String::with_capacity(base + extra);
    for (i, tok) in tokens.iter().enumerate() {
        out.push_str(tok);
        if i < gaps {
            out.push_str(&" ".repeat(1 + extras[i]));
        }
    }
    out
}

/// The plain one-line text of `template` (the hot sources of `wire_small`
/// and `wire_heavy`).
pub fn canonical_source(template: Template) -> String {
    let (method, p0, p1) = match template {
        Template::Fib => ("fib", "n", ""),
        Template::Binomial => ("binomial", "n", "k"),
        Template::Paren(_) => ("paren", "o", "c"),
        Template::Treesum => ("treesum", "d", "v"),
    };
    let mut none = String::new;
    let mut d = Dress { method, p0, p1, neutral: &mut none };
    join(&tokens(template, &mut d), 0, None)
}

/// A dressed-up text of `template`: seeded identifier names (`index` keeps
/// them distinct across a set), up to three neutral terms per spawn
/// argument, blanks up to `bytes`. Same recursion, same answers, another
/// cache key.
pub fn variant_source(template: Template, index: usize, bytes: usize, rng: &mut Rng) -> String {
    let ident = |rng: &mut Rng, prefix: &str| {
        let len = 2 + rng.below(14) as usize;
        let tail: String = (0..len).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
        format!("{prefix}_{tail}")
    };
    let method = ident(rng, &format!("m{index}"));
    let p0 = ident(rng, "a");
    let p1 = ident(rng, "b");
    let mut term_rng = Rng::new(rng.next_u64(), 1);
    let mut neutral = move || {
        (0..term_rng.below(4))
            .map(|_| match term_rng.below(5) {
                0 => "+ 0".to_string(),
                1 => "- 0".to_string(),
                2 => "* 1".to_string(),
                3 => {
                    let c = term_rng.below(1000);
                    format!("+ ({c} - {c})")
                }
                _ => format!("+ 0 * {}", term_rng.below(1000)),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut d = Dress { method: &method, p0: &p0, p1: &p1, neutral: &mut neutral };
    let toks = tokens(template, &mut d);
    join(&toks, bytes, Some(rng))
}

/// Root arguments of a request: up to two `i64`s, inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Args {
    v: [i64; 2],
    n: u8,
}

impl Args {
    pub fn one(a: i64) -> Self {
        Args { v: [a, 0], n: 1 }
    }

    pub fn two(a: i64, b: i64) -> Self {
        Args { v: [a, b], n: 2 }
    }

    pub fn as_slice(&self) -> &[i64] {
        &self.v[..self.n as usize]
    }
}

/// The `ERR` class a malformed line must draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrClass {
    UnknownVerb,
    BadTier,
    BadArgs,
    /// A well-framed request whose spec source does not parse: the error is
    /// the runtime's caret diagnostic, carried escaped on one line.
    SpecParse,
}

impl ErrClass {
    /// Does the payload after `ERR ` belong to this class?
    pub fn matches(self, message: &str) -> bool {
        match self {
            ErrClass::UnknownVerb => message.starts_with("unknown verb"),
            ErrClass::BadTier => message.starts_with("bad tier"),
            ErrClass::BadArgs => message.starts_with("bad args") || message.starts_with("bad root argument"),
            ErrClass::SpecParse => message.starts_with("parse error at line") && message.contains('^'),
        }
    }

    /// Only a spec error gets past `parse_request` into placement and the
    /// shard runtime (where it is counted as rejected).
    pub fn reaches_runtime(self) -> bool {
        self == ErrClass::SpecParse
    }
}

/// One spec source of a stream.
#[derive(Debug, Clone)]
pub struct Source {
    pub text: String,
    pub template: Template,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `SUBMIT <tenant> auto <args> <sources[source]>`.
    Submit { source: u32, args: Args },
    /// `malformed[index]`, sent verbatim.
    Malformed { index: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOp {
    pub tenant: u16,
    pub kind: OpKind,
}

/// A generated request stream: the tenants, the source texts (the first
/// `hot` of them are the hot set), the malformed lines and the op
/// sequence. Connections walk disjoint strides of `ops`, cycling.
#[derive(Debug, Clone)]
pub struct WireStream {
    pub tenants: Vec<String>,
    pub sources: Vec<Source>,
    pub hot: usize,
    pub malformed: Vec<Malformed>,
    pub ops: Vec<WireOp>,
}

impl WireStream {
    /// The request line of `op`, terminator included, appended to `buf`.
    pub fn render(&self, op: &WireOp, buf: &mut Vec<u8>) {
        match op.kind {
            OpKind::Submit { source, args } => {
                let line = render_submit(
                    &self.tenants[op.tenant as usize],
                    SpecTier::Auto,
                    args.as_slice(),
                    &self.sources[source as usize].text,
                );
                buf.extend_from_slice(line.as_bytes());
            }
            OpKind::Malformed { index } => {
                buf.extend_from_slice(self.malformed[index as usize].line.as_bytes())
            }
        }
        buf.push(b'\n');
    }

    /// Mean request size in bytes over the stream (exact; repeats for a
    /// seed).
    pub fn mean_request_bytes(&self) -> f64 {
        let mut buf = Vec::new();
        let mut total = 0usize;
        for op in &self.ops {
            buf.clear();
            self.render(op, &mut buf);
            total += buf.len();
        }
        total as f64 / self.ops.len() as f64
    }
}

fn tenant_names() -> Vec<String> {
    (0..WIRE_TENANTS).map(|i| format!("tenant{i}")).collect()
}

/// Tiny-job arguments for a source of `template`.
fn small_args(template: Template, rng: &mut Rng) -> Args {
    match template {
        Template::Fib => Args::one(rng.in_range(*SMALL_FIB_ARGS.start(), *SMALL_FIB_ARGS.end())),
        _ => Args::two(SMALL_BINOMIAL.0, SMALL_BINOMIAL.1),
    }
}

fn alternate(i: usize) -> Template {
    [Template::Fib, Template::Binomial][i % 2]
}

/// The request stream of a wire workload for `seed`.
pub fn wire_stream(workload: &str, seed: u64) -> WireStream {
    let tenants = tenant_names();
    let mut src_rng = Rng::new(seed, 11);
    let mut op_rng = Rng::new(seed, 12);
    let tenant = |rng: &mut Rng| rng.below(WIRE_TENANTS as u64) as u16;
    match workload {
        "wire_small" => {
            let sources: Vec<Source> = (0..SMALL_HOT_SOURCES)
                .map(|i| {
                    let template = alternate(i);
                    let text = if i < 2 {
                        canonical_source(template)
                    } else {
                        variant_source(template, i, 160, &mut src_rng)
                    };
                    Source { text, template }
                })
                .collect();
            let ops = (0..WIRE_STREAM_OPS)
                .map(|_| {
                    let source = op_rng.below(sources.len() as u64) as u32;
                    let args = small_args(sources[source as usize].template, &mut op_rng);
                    WireOp { tenant: tenant(&mut op_rng), kind: OpKind::Submit { source, args } }
                })
                .collect();
            WireStream { tenants, hot: sources.len(), sources, malformed: Vec::new(), ops }
        }
        "wire_heavy" => {
            let jobs = [
                (Template::Fib, Args::one(HEAVY_FIB_N)),
                (Template::Binomial, Args::two(HEAVY_BINOMIAL.0, HEAVY_BINOMIAL.1)),
                (Template::Paren(HEAVY_PAREN_N), Args::two(0, 0)),
                (Template::Treesum, Args::two(HEAVY_TREESUM_DEPTH, 0)),
            ];
            let sources: Vec<Source> = jobs
                .iter()
                .map(|&(template, _)| Source { text: canonical_source(template), template })
                .collect();
            let ops = (0..HEAVY_STREAM_OPS)
                .map(|_| {
                    let source = op_rng.below(jobs.len() as u64) as usize;
                    let kind = OpKind::Submit { source: source as u32, args: jobs[source].1 };
                    WireOp { tenant: tenant(&mut op_rng), kind }
                })
                .collect();
            WireStream { tenants, hot: sources.len(), sources, malformed: Vec::new(), ops }
        }
        "wire_churn" => {
            let (lo, hi) = (*CHURN_SOURCE_BYTES.start(), *CHURN_SOURCE_BYTES.end());
            let sources: Vec<Source> = (0..CHURN_HOT_SOURCES + CHURN_COLD_SOURCES)
                .map(|i| {
                    let template = alternate(i);
                    let bytes = lo + src_rng.below((hi - lo + 1) as u64) as usize;
                    Source { text: variant_source(template, i, bytes, &mut src_rng), template }
                })
                .collect();
            let mut bad_rng = Rng::new(seed, 13);
            let malformed: Vec<Malformed> = (0..64)
                .map(|i| {
                    let source = &sources[bad_rng.below(sources.len() as u64) as usize];
                    let args = small_args(source.template, &mut bad_rng);
                    let name = &tenants[bad_rng.below(WIRE_TENANTS as u64) as usize];
                    malformed_line(i, name, args, &source.text, &mut bad_rng)
                })
                .collect();
            let ops = (0..WIRE_STREAM_OPS)
                .map(|_| {
                    let tenant = tenant(&mut op_rng);
                    if op_rng.below(1000) < CHURN_MALFORMED_PERMILLE {
                        let index = op_rng.below(malformed.len() as u64) as u32;
                        return WireOp { tenant, kind: OpKind::Malformed { index } };
                    }
                    let source = if op_rng.below(100) < CHURN_COLD_PERCENT {
                        CHURN_HOT_SOURCES as u64 + op_rng.below(CHURN_COLD_SOURCES as u64)
                    } else {
                        op_rng.below(CHURN_HOT_SOURCES as u64)
                    } as u32;
                    let args = small_args(sources[source as usize].template, &mut op_rng);
                    WireOp { tenant, kind: OpKind::Submit { source, args } }
                })
                .collect();
            WireStream { tenants, hot: CHURN_HOT_SOURCES, sources, malformed, ops }
        }
        other => panic!("{other} is not a wire workload"),
    }
}

/// A request built to be refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    /// The request line (no terminator).
    pub line: String,
    pub class: ErrClass,
    /// For [`ErrClass::SpecParse`]: the damaged source and root arguments
    /// the line carries, so in-process rungs can submit the same job.
    pub job: Option<(String, Args)>,
}

/// Damage a valid request into one of the four `ERR` classes (`which`
/// cycles through them so a pool of lines covers all).
pub fn malformed_line(which: usize, tenant: &str, args: Args, source: &str, rng: &mut Rng) -> Malformed {
    let good = render_submit(tenant, SpecTier::Auto, args.as_slice(), source);
    let pick = |rng: &mut Rng, xs: &[&str]| xs[rng.below(xs.len() as u64) as usize].to_string();
    let refused = |line: String, class: ErrClass| Malformed { line, class, job: None };
    match which % 4 {
        0 => {
            let verb = pick(rng, &["SUBMTI", "submit", "RUN", "SUBMITX"]);
            refused(good.replacen("SUBMIT", &verb, 1), ErrClass::UnknownVerb)
        }
        1 => {
            let tier = pick(rng, &["warp", "AUTO", "vector", "fast"]);
            refused(good.replacen(" auto ", &format!(" {tier} "), 1), ErrClass::BadTier)
        }
        2 => {
            let bad = pick(rng, &["[x]", "20", "[1;2]", "[1,,2]"]);
            let from = good.find('[').expect("a rendered SUBMIT has an args field");
            let to = good.find(']').expect("a rendered SUBMIT has an args field");
            refused(format!("{}{bad}{}", &good[..from], &good[to + 1..]), ErrClass::BadArgs)
        }
        _ => {
            // Dropping the first `;` leaves `reduce <expr> }`: a parse
            // error the runtime reports with a caret into the source.
            let damaged = source.replacen(';', "", 1);
            Malformed {
                line: render_submit(tenant, SpecTier::Auto, args.as_slice(), &damaged),
                class: ErrClass::SpecParse,
                job: Some((damaged, args)),
            }
        }
    }
}

/// One job of an open-loop burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstJob {
    /// Tenant `inter` (priority 1, weight 4) instead of `batch`.
    pub inter: bool,
    pub n: i64,
}

/// The burst schedule for `seed`: burst `b` is due at `b × BURST_PERIOD_US`
/// and holds `BURST_JOBS` jobs, every `BURST_INTER_EVERY`-th of them (at
/// shuffled positions) from tenant `inter`. The window cycles through it.
pub fn burst_schedule(seed: u64) -> Vec<Vec<BurstJob>> {
    let mut rng = Rng::new(seed, 21);
    (0..BURST_SCHEDULE_BURSTS)
        .map(|_| {
            let mut jobs: Vec<BurstJob> = (0..BURST_JOBS)
                .map(|j| BurstJob {
                    inter: j % BURST_INTER_EVERY == 0,
                    n: rng.in_range(*BURST_FIB_ARGS.start(), *BURST_FIB_ARGS.end()),
                })
                .collect();
            rng.shuffle(&mut jobs);
            jobs
        })
        .collect()
}

/// One `lib_batch` op: which program, under which scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibOp {
    /// Index into the workload's program list.
    pub prog: usize,
    /// `Adaptive` instead of `RestartSimplified`.
    pub adaptive: bool,
}

/// The library op stream for `seed`: rounds of every (program, scheduler)
/// pair, each round in a fresh seeded order.
pub fn lib_stream(seed: u64, programs: usize) -> Vec<LibOp> {
    let mut rng = Rng::new(seed, 31);
    let mut ops = Vec::with_capacity(LIB_STREAM_OPS);
    while ops.len() < LIB_STREAM_OPS {
        let mut round: Vec<LibOp> =
            (0..programs * 2).map(|i| LibOp { prog: i / 2, adaptive: i % 2 == 0 }).collect();
        rng.shuffle(&mut round);
        ops.extend(round);
    }
    ops.truncate(LIB_STREAM_OPS);
    ops
}
