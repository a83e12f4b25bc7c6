//! `tb-e2e` — the repository's benchmark: five workloads from the TCP
//! socket down to the task block, seven end-to-end metrics, and an
//! outside-in ladder of per-layer metrics. README.md is the manual;
//! `BENCHMARK.json` at the repository root is the contract.

pub mod compare;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod micro;
pub mod oracle;
pub mod run;
pub mod sizing;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
