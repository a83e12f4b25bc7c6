//! Independent answers, computed in set-up and never by the path under
//! test: a spec job's value comes from the reference interpreter
//! (`tb_spec::interpret`) over the very text the client will send, and its
//! task count from two single-thread engine runs that must agree exactly.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tb_core::{run_policy, ExecStats};
use tb_spec::{interpret, parse_spec, CompiledSpec};

use crate::gen::{canonical_source, Args, ErrClass, Source, Template};
use crate::sizing::wire_sched;

/// What is known about one (source, args) job before it is ever submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobFacts {
    pub value: i64,
    /// Recursion tasks the job executes (a property of the template and
    /// arguments; naming and neutral terms do not change the tree).
    pub tasks: u64,
}

/// Answers for every job of a stream.
#[derive(Debug, Default)]
pub struct SpecOracle {
    facts: HashMap<(u32, Args), JobFacts>,
}

impl SpecOracle {
    /// Interpret every distinct `(source, args)` job in `jobs`.
    pub fn build(sources: &[Source], jobs: impl Iterator<Item = (u32, Args)>) -> Result<Self, String> {
        let mut parsed = HashMap::new();
        let mut trees: HashMap<(Template, Args), u64> = HashMap::new();
        let mut facts = HashMap::new();
        for (source, args) in jobs {
            if facts.contains_key(&(source, args)) {
                continue;
            }
            let src = &sources[source as usize];
            let spec = match parsed.entry(source) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(
                    parse_spec(&src.text)
                        .map_err(|e| format!("generated source {source} does not parse: {e}"))?,
                ),
            };
            let value = interpret(spec, args.as_slice());
            let tasks = match trees.entry((src.template, args)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => *e.insert(single_thread_counts(src.template, args)?.tasks_executed),
            };
            facts.insert((source, args), JobFacts { value, tasks });
        }
        Ok(SpecOracle { facts })
    }

    pub fn facts(&self, source: u32, args: Args) -> JobFacts {
        self.facts[&(source, args)]
    }
}

/// Run `template(args)` twice on the single-thread engine under the wire
/// scheduler settings; the machine-model counts must repeat exactly.
pub fn single_thread_counts(template: Template, args: Args) -> Result<ExecStats, String> {
    let spec = parse_spec(&canonical_source(template)).map_err(|e| e.to_string())?;
    let (cfg, _) = wire_sched();
    let run = || -> Result<ExecStats, String> {
        let prog = CompiledSpec::new(&spec, args.as_slice().to_vec()).map_err(|e| format!("{e:?}"))?;
        Ok(run_policy(&prog, cfg, None).stats)
    };
    let (a, b) = (run()?, run()?);
    if (a.tasks_executed, a.supersteps) != (b.tasks_executed, b.supersteps) {
        return Err(format!(
            "single-thread counts do not repeat for {template:?}{:?}: tasks {} vs {}, supersteps {} vs {}",
            args.as_slice(),
            a.tasks_executed,
            b.tasks_executed,
            a.supersteps,
            b.supersteps
        ));
    }
    Ok(a)
}

/// What a request must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Value(i64),
    Err(ErrClass),
}

/// Is `response` (one line, terminator stripped) the expected outcome?
/// `OK <id> <value>` must carry the oracle's value; an `ERR` counts only
/// when it is of the class the malformed line was built to draw.
pub fn response_ok(response: &str, expect: Expect) -> bool {
    match expect {
        Expect::Value(want) => {
            let mut parts = response.splitn(3, ' ');
            parts.next() == Some("OK")
                && parts.next().is_some_and(|id| id.parse::<u64>().is_ok())
                && parts.next().and_then(|v| v.parse::<i64>().ok()) == Some(want)
        }
        Expect::Err(class) => response.strip_prefix("ERR ").is_some_and(|msg| class.matches(msg)),
    }
}
