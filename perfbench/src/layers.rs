//! The fixed metric sets. Every workload fills the same two structs, so
//! every run reports every metric `BENCHMARK.json` lists; a layer a
//! workload bypasses, or cannot see through the public API, reads 0.

use crate::report::Report;

/// End-to-end metrics, measured with tracing off.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Input IR instructions ÷ wall time of front end + compile.
    pub compile_insts_per_s: f64,
    /// Per-function latency as the caller sees it, median: an in-process
    /// front end + compile, or a daemon round trip on serve-mix.
    pub compile_ms_p50: f64,
    /// The same latency, nearest-rank p99.
    pub compile_ms_p99: f64,
    /// Latency samples behind the two percentiles.
    pub latency_samples: usize,
    /// The workload's operations per second: functions compiled,
    /// kernel × machine × policy cells, or requests.
    pub ops_per_s: f64,
    /// Summed dynamic cycles of the scheduled outputs.
    pub sim_cycles: u64,
    /// Geometric mean of bb-only cycles ÷ scheduled cycles.
    pub sched_speedup: f64,
    /// Summed static instructions of the scheduled outputs.
    pub code_insts: u64,
    /// The program's set-up before the first timed operation, median of
    /// several set-ups.
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn emit(&self, r: &mut Report) {
        r.metric("compile_insts_per_s", self.compile_insts_per_s, "insts/s");
        r.metric("compile_ms_p50", self.compile_ms_p50, "ms");
        r.metric("compile_ms_p99", self.compile_ms_p99, "ms");
        r.metric("ops_per_s", self.ops_per_s, "1/s");
        r.metric("sim_cycles", self.sim_cycles as f64, "cycles");
        r.metric("sched_speedup", self.sched_speedup, "ratio");
        r.metric("code_insts", self.code_insts as f64, "insts");
        r.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        r.metric("setup_s", self.setup_s, "s");
        r.note("latency_samples", self.latency_samples as f64, "count");
        r.pin("sim_cycles", self.sim_cycles);
        r.pin("code_insts", self.code_insts);
        r.pin(
            "sched_speedup",
            format!("{:016x}", self.sched_speedup.to_bits()),
        );
    }
}

/// Per-layer metrics of one traced pass over the workload's fixed input
/// set (times are per pass, averaged over the traced passes of the run).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub frontend_parse_ms: f64,
    pub cfg_analyze_ms: f64,
    pub rename_ms: f64,
    pub rename_standalone_ms: f64,
    pub global_ms: f64,
    pub liveness_ms: f64,
    pub liveness_est_ms: f64,
    pub deps_ms: f64,
    pub ns_per_inst_ratio: f64,
    pub unroll_ms: f64,
    pub rotate_ms: f64,
    pub final_bb_ms: f64,
    pub compile_other_ms: f64,
    pub cpu_util: f64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_entries: u64,
    pub execute_ms: f64,
    pub timing_ms: f64,
    pub server_ms_p50: f64,
    pub overhead_ms_p50: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub key_ms: f64,
    pub untraced_ms: f64,
    pub traced_ms: f64,
    pub coverage: f64,
    /// The deterministic counters of one traced pass.
    pub counts: Counts,
}

/// Counters that must repeat exactly for the same inputs: per traced
/// pass within a run, and across runs of the same seed and build.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub webs_renamed: u64,
    pub regions_scheduled: u64,
    pub moved_useful: u64,
    pub moved_speculative: u64,
    pub moved_duplicated: u64,
    pub liveness_full: u64,
    pub dep_edges: u64,
    pub steps: u64,
}

impl Counts {
    pub fn merge(&mut self, other: &Counts) {
        self.webs_renamed += other.webs_renamed;
        self.regions_scheduled += other.regions_scheduled;
        self.moved_useful += other.moved_useful;
        self.moved_speculative += other.moved_speculative;
        self.moved_duplicated += other.moved_duplicated;
        self.liveness_full += other.liveness_full;
        self.dep_edges += other.dep_edges;
        self.steps += other.steps;
    }

    /// Adds one compile's pipeline counters.
    pub fn add(&mut self, stats: &gis_core::SchedStats) {
        self.webs_renamed += stats.webs_renamed as u64;
        self.regions_scheduled += stats.regions_scheduled as u64;
        self.moved_useful += stats.moved_useful as u64;
        self.moved_speculative += stats.moved_speculative as u64;
        self.moved_duplicated += stats.moved_duplicated as u64;
        self.liveness_full += stats.liveness_full as u64;
        self.dep_edges += stats.dep_edges as u64;
    }
}

impl Layers {
    pub fn emit(&self, r: &mut Report) {
        use crate::report::ratio;
        let c = &self.counts;
        let memo_ratio = ratio(
            self.memo_hits as f64,
            (self.memo_hits + self.memo_misses) as f64,
        );
        let cache_ratio = ratio(
            self.cache_hits as f64,
            (self.cache_hits + self.cache_misses) as f64,
        );
        let rows: [(&str, f64, &'static str); 38] = [
            ("frontend.parse_ms", self.frontend_parse_ms, "ms"),
            ("cfg.analyze_ms", self.cfg_analyze_ms, "ms"),
            ("pdg.rename_ms", self.rename_ms, "ms"),
            ("pdg.rename_standalone_ms", self.rename_standalone_ms, "ms"),
            ("pdg.webs_renamed", c.webs_renamed as f64, "count"),
            ("core.global_ms", self.global_ms, "ms"),
            (
                "core.regions_scheduled",
                c.regions_scheduled as f64,
                "count",
            ),
            ("core.moved_useful", c.moved_useful as f64, "count"),
            (
                "core.moved_speculative",
                c.moved_speculative as f64,
                "count",
            ),
            ("core.moved_duplicated", c.moved_duplicated as f64, "count"),
            ("pdg.liveness_ms", self.liveness_ms, "ms"),
            ("pdg.liveness_full", c.liveness_full as f64, "count"),
            ("pdg.liveness_est_ms", self.liveness_est_ms, "ms"),
            ("pdg.deps_ms", self.deps_ms, "ms"),
            ("pdg.dep_edges", c.dep_edges as f64, "count"),
            ("core.ns_per_inst_ratio", self.ns_per_inst_ratio, "ratio"),
            ("core.unroll_ms", self.unroll_ms, "ms"),
            ("core.rotate_ms", self.rotate_ms, "ms"),
            ("core.final_bb_ms", self.final_bb_ms, "ms"),
            ("core.compile_other_ms", self.compile_other_ms, "ms"),
            ("core.parallel.cpu_util", self.cpu_util, "ratio"),
            ("core.memo.hits", self.memo_hits as f64, "count"),
            ("core.memo.misses", self.memo_misses as f64, "count"),
            ("core.memo.hit_ratio", memo_ratio, "ratio"),
            ("core.memo.entries", self.memo_entries as f64, "count"),
            ("sim.execute_ms", self.execute_ms, "ms"),
            ("sim.timing_ms", self.timing_ms, "ms"),
            ("sim.steps", c.steps as f64, "count"),
            ("serve.server_ms_p50", self.server_ms_p50, "ms"),
            ("serve.overhead_ms_p50", self.overhead_ms_p50, "ms"),
            ("serve.cache.hits", self.cache_hits as f64, "count"),
            ("serve.cache.misses", self.cache_misses as f64, "count"),
            ("serve.cache.hit_ratio", cache_ratio, "ratio"),
            ("serve.key_ms", self.key_ms, "ms"),
            ("trace.untraced_ms", self.untraced_ms, "ms"),
            ("trace.traced_ms", self.traced_ms, "ms"),
            ("trace.overhead_ms", self.traced_ms - self.untraced_ms, "ms"),
            ("trace.coverage", self.coverage, "ratio"),
        ];
        for (name, value, unit) in rows {
            r.metric(name, value, unit);
        }
        for (name, value) in [
            ("webs_renamed", c.webs_renamed),
            ("regions_scheduled", c.regions_scheduled),
            ("moved_useful", c.moved_useful),
            ("moved_speculative", c.moved_speculative),
            ("moved_duplicated", c.moved_duplicated),
            ("liveness_full", c.liveness_full),
            ("dep_edges", c.dep_edges),
            ("steps", c.steps),
        ] {
            r.pin(name, value);
        }
    }
}
