//! The workload table: each workload's input size, its `ftpm mine`
//! flags, and the in-process configuration that mirrors those flags.

use std::path::Path;

use ftpm::{BoundaryPolicy, MinerConfig, RelationConfig, SplitConfig};

use crate::digest::RowDigest;
use crate::pipeline::Produced;

/// How the CLI hands the mined patterns back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// `--stream --output <pipe>.jsonl`: JSON Lines written while mining.
    StreamJsonl,
    /// `--top N --json`: collect, rank, print the N best in the summary.
    Top(usize),
}

impl Output {
    /// File extension of a streamed export.
    pub fn extension(self) -> Option<&'static str> {
        match self {
            Output::StreamJsonl => Some("jsonl"),
            Output::Top(_) => None,
        }
    }
}

/// Time-range sharding with candidate exchange (`--shards K
/// --boundary true-extent --t-max T`).
#[derive(Debug, Clone, Copy)]
pub struct Sharding {
    pub shards: usize,
    pub t_max: i64,
}

/// Pattern count and row digest a workload must reproduce on seed 0.
/// `rows` counts the digested rows: every exported line, or the ranked
/// patterns of a `--top` summary.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    pub patterns: u64,
    pub rows: u64,
    pub digest: u64,
}

impl Pinned {
    pub fn produced(&self) -> Produced {
        Produced {
            patterns: self.patterns,
            rows: RowDigest { rows: self.rows, sum: self.digest },
        }
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Days of generated data (4 six-hour sequences per day).
    pub days: usize,
    pub sigma: f64,
    pub delta: f64,
    pub threads: usize,
    /// `--max-events`; `None` keeps the CLI default of 5.
    pub max_events: Option<usize>,
    /// A-HTPGM with this correlation-graph density (`--approx-density`).
    pub density: Option<f64>,
    pub sharding: Option<Sharding>,
    pub output: Output,
    pub pinned: Pinned,
}

/// The CLI's default split for CSV input, which matches the demo's
/// four six-hour sequences per day.
pub fn split() -> SplitConfig {
    SplitConfig::new(360, 0)
}

/// The CLI's default `--max-events`.
const DEFAULT_MAX_EVENTS: usize = 5;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense_stream_jsonl_t2",
        why: "8 days, sigma 0.4, max 4 events, 2 threads, --stream JSONL: the parallel miner and the JSONL export of all 224k patterns carry the run; no MI graph, no shards",
        days: 8,
        sigma: 0.4,
        delta: 0.4,
        threads: 2,
        max_events: Some(4),
        density: None,
        sharding: None,
        output: Output::StreamJsonl,
        pinned: Pinned { patterns: 224_372, rows: 224_372, digest: 0x31f2_b5ec_d9fb_aa69 },
    },
    Workload {
        name: "long_exchange_topk_t2",
        why: "60 days, A-HTPGM density 0.8, 4 time shards with candidate exchange, 2 threads, --top 20 --json: parse, MI graph, shard plan, exchange, CollectSink and rank; no export",
        days: 60,
        sigma: 0.1,
        delta: 0.1,
        threads: 2,
        max_events: None,
        density: Some(0.8),
        sharding: Some(Sharding { shards: 4, t_max: 180 }),
        output: Output::Top(20),
        pinned: Pinned { patterns: 3_828, rows: 20, digest: 0x93a6_2c37_c35f_a4b6 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn boundary(&self) -> BoundaryPolicy {
        if self.sharding.is_some() {
            BoundaryPolicy::TrueExtent
        } else {
            BoundaryPolicy::Clip
        }
    }

    /// The miner configuration `ftpm mine` builds from [`Self::cli_args`].
    pub fn miner_config(&self) -> MinerConfig {
        let mut relation = RelationConfig::default().with_boundary(self.boundary());
        if let Some(s) = self.sharding {
            relation = relation.with_t_max(s.t_max);
        }
        MinerConfig::new(self.sigma, self.delta)
            .with_max_events(self.max_events.unwrap_or(DEFAULT_MAX_EVENTS))
            .with_relation(relation)
    }

    /// `ftpm mine` arguments for `input`; streamed patterns go to
    /// `output`.
    pub fn cli_args(&self, input: &Path, output: &Path) -> Vec<String> {
        let mut args: Vec<String> = vec!["mine".into(), "--input".into(), input.display().to_string()];
        let mut flag = |name: &str, value: String| {
            args.push(name.into());
            args.push(value);
        };
        flag("--sigma", self.sigma.to_string());
        flag("--delta", self.delta.to_string());
        flag("--threads", self.threads.to_string());
        if let Some(n) = self.max_events {
            flag("--max-events", n.to_string());
        }
        if let Some(d) = self.density {
            flag("--approx-density", d.to_string());
        }
        if let Some(s) = self.sharding {
            flag("--shards", s.shards.to_string());
            flag("--boundary", self.boundary().as_str().to_string());
            flag("--t-max", s.t_max.to_string());
        }
        match self.output {
            Output::StreamJsonl => {
                args.push("--stream".into());
                args.push("--output".into());
                args.push(output.display().to_string());
            }
            Output::Top(n) => {
                args.push("--top".into());
                args.push(n.to_string());
                args.push("--json".into());
            }
        }
        args
    }
}
