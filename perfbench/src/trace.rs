//! Spans recorded from the benchmark's own code, around its calls into
//! each layer's public functions, plus the standalone layer calls the
//! traced run makes to split a compile into analyses the pipeline does
//! not time on its own.
//!
//! Path gap: the standalone calls run outside `gis_core::compile`, so
//! they bypass the region memo and the parallel merge; they estimate
//! what one region's set-up costs, they do not observe it.

use gis_cfg::{Cfg, DomTree, LoopForest, NodeId, RegionGraph, RegionId, RegionNode, RegionTree};
use gis_core::{SchedConfig, SchedStats};
use gis_ir::{BlockId, Function};
use gis_machine::MachineDescription;
use gis_pdg::{webs::rename_webs, DataDeps, Liveness};
use gis_trace::Pass;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span: a layer's interval, the operation it served and the span
/// that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span log, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::starting_at(Instant::now())
    }

    /// A tracer whose span times count from `origin`, so the spans of
    /// several tracers can be merged.
    pub fn starting_at(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends another tracer's spans (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Records a span timed elsewhere (by a thread that does not hold
    /// the tracer) from its start and end instants.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    /// Records a child interval the program timed itself (a pipeline
    /// pass, the daemon's own compile time). Its start is unknown, so it
    /// is placed at the parent's start.
    pub fn child(&mut self, name: &'static str, parent: usize, dur_ns: u64) {
        let (op, start_ns) = (self.spans[parent].op, self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            dur_ns,
        });
    }

    /// The pipeline's own pass timings as children of a compile span.
    pub fn passes(&mut self, parent: usize, stats: &SchedStats) {
        for (name, ns) in PASS_LAYERS.into_iter().zip(pass_nanos(stats)) {
            self.child(name, parent, ns);
        }
    }

    /// Summed duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Summed self time of every span named `name` (its duration minus
    /// what its children cover), in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns: HashMap<usize, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.dur_ns
                    .saturating_sub(child_ns.get(&i).copied().unwrap_or(0))
            })
            .sum();
        ns as f64 / 1e6
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"dur_ns\": {}}}",
                s.name, s.op, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// Layer names of the pipeline passes, in the order of [`pass_nanos`].
pub const PASS_LAYERS: [&str; 5] = [
    "pdg.rename",
    "core.unroll",
    "core.global",
    "core.rotate",
    "core.final_bb",
];

/// `SchedStats::pass_nanos` folded onto [`PASS_LAYERS`] (the two global
/// passes form one layer).
fn pass_nanos(stats: &SchedStats) -> [u64; 5] {
    let ns = |p: Pass| stats.pass_nanos[p.index()];
    [
        ns(Pass::Rename),
        ns(Pass::Unroll),
        ns(Pass::Global1) + ns(Pass::Global2),
        ns(Pass::Rotate),
        ns(Pass::FinalBb),
    ]
}

/// The standalone layer calls for one compiled function, each under its
/// own span below `parent`:
///
/// * `cfg.analyze` — CFG, dominators, loops and region tree of the
///   front end's output;
/// * `pdg.rename_standalone` — `rename_webs` on a copy of that output;
/// * `pdg.liveness` — one whole-function `Liveness::compute` on the
///   scheduled output (the pipeline runs one per scheduled region);
/// * `pdg.deps` — `DataDeps::build` for every region of the scheduled
///   output the size gates admit.
///
/// Returns the standalone liveness time in ms.
pub fn standalone_layers(
    t: &mut Tracer,
    parent: usize,
    input: &Function,
    output: &Function,
    machine: &MachineDescription,
    config: &SchedConfig,
) -> f64 {
    let op = t.spans[parent].op;
    let span = t.begin("cfg.analyze", op, Some(parent));
    let (cfg, _) = analyze(input);
    t.end(span);

    let mut copy = input.clone();
    let span = t.begin("pdg.rename_standalone", op, Some(parent));
    std::hint::black_box(rename_webs(&mut copy, &cfg));
    t.end(span);

    let out_cfg = Cfg::new(output);
    let span = t.begin("pdg.liveness", op, Some(parent));
    std::hint::black_box(Liveness::compute(output, &out_cfg));
    t.end(span);
    let liveness_ms = t.spans[span].dur_ns as f64 / 1e6;

    let (cfg, tree) = analyze(output);
    let span = t.begin("pdg.deps", op, Some(parent));
    std::hint::black_box(region_deps(output, machine, &cfg, &tree, config));
    t.end(span);
    liveness_ms
}

/// The CFG analyses the pipeline runs before each pass: CFG,
/// dominators, loops and region tree.
pub fn analyze(f: &Function) -> (Cfg, RegionTree) {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let loops = LoopForest::new(&cfg, &dom);
    let tree = RegionTree::new(&cfg, &loops);
    (cfg, tree)
}

/// Builds the data dependence graph of every region the §6 size gates
/// admit, as the global scheduler does at region set-up; returns the
/// summed edge count.
fn region_deps(
    f: &Function,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    config: &SchedConfig,
) -> usize {
    let mut edges = 0;
    for (rid, region) in tree.regions() {
        if region.height > config.max_region_height {
            continue;
        }
        let scope = subtree_blocks(tree, rid);
        let insts: usize = scope.iter().map(|&b| f.block(b).len()).sum();
        if scope.len() > config.max_region_blocks || insts > config.max_region_insts {
            continue;
        }
        let Ok(g) = RegionGraph::new(cfg, tree, rid) else {
            continue;
        };
        let reach = reachability(&g);
        let node_of: HashMap<BlockId, usize> = scope
            .iter()
            .map(|&b| (b, lift_block(&g, tree, rid, b)))
            .collect();
        let may_follow = |x: BlockId, y: BlockId| {
            let (nx, ny) = (node_of[&x], node_of[&y]);
            nx != ny && reach[nx][ny]
        };
        edges += DataDeps::build(f, machine, &scope, may_follow).num_edges();
    }
    edges
}

fn subtree_blocks(tree: &RegionTree, rid: RegionId) -> Vec<BlockId> {
    let mut out = Vec::new();
    let mut stack = vec![rid];
    while let Some(r) = stack.pop() {
        let region = tree.region(r);
        out.extend(region.blocks.iter().copied());
        stack.extend(region.children.iter().copied());
    }
    out.sort();
    out
}

fn reachability(g: &RegionGraph) -> Vec<Vec<bool>> {
    let n = g.num_nodes();
    (0..n)
        .map(|start| {
            let mut row = vec![false; n];
            row[start] = true;
            let mut stack = vec![NodeId::from_index(start)];
            while let Some(x) = stack.pop() {
                for &(to, _) in g.succs(x) {
                    if !row[to.index()] {
                        row[to.index()] = true;
                        stack.push(to);
                    }
                }
            }
            row
        })
        .collect()
}

/// The node of block `b` in region `rid`'s graph: its own node, or the
/// supernode of the direct child region enclosing it.
fn lift_block(g: &RegionGraph, tree: &RegionTree, rid: RegionId, b: BlockId) -> usize {
    if let Some(n) = g.node_of_block(b) {
        return n.index();
    }
    let mut cur = tree.innermost(b);
    while let Some(parent) = tree.region(cur).parent {
        if parent == rid {
            break;
        }
        cur = parent;
    }
    (0..g.num_nodes())
        .find(|&i| g.node(NodeId::from_index(i)) == RegionNode::Inner(cur))
        .expect("every block of a region's subtree lifts to a node")
}
