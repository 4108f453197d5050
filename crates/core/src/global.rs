//! The global (inter-block) scheduler — §5.1–§5.3 of the paper.
//!
//! One region at a time, blocks in topological order. For each block `A`
//! the candidate blocks are `EQUIV(A)` (useful motion) plus, at the
//! speculative level, the immediate CSPDG successors of `A` and of
//! `EQUIV(A)` that `A` dominates (no duplication, Definition 6; 1-branch
//! speculation only, Definition 7). Candidate instructions are scheduled
//! cycle by cycle against the parametric machine description; when a
//! candidate from another block is picked it physically moves into `A`
//! (always upward). The heuristic ladder of §5.2 breaks ties: useful
//! before speculative, then the delay heuristic `D`, then the critical
//! path heuristic `CP`, then original program order.
//!
//! Beyond the paper, [`SchedConfig::duplication`] lifts Definition 6's
//! no-duplication restriction for one shape: a join every one of whose
//! predecessors falls through into it unconditionally. The join's
//! movable instructions are scheduled into the topologically last
//! predecessor, with fresh-id copies minted at the end of each sibling —
//! execution counts are preserved exactly, so this is the first
//! transformation here that changes a function's instruction count (see
//! `docs/PAPER_MAP.md`).
//!
//! Speculative motions obey §5.3: an instruction defining a register that
//! is live on exit from `A` is rejected — or, when the definition's
//! du-chain is local to its home block, renamed to a fresh register (the
//! paper's `cr6`→`cr5` motion in Figure 6). §5.3 needs live sets only for
//! the region's own blocks, so liveness is region-local end to end:
//!
//! * **Boundary.** Each global pass solves whole-function liveness once,
//!   on the pass-start function. A region whose exit successors all lie
//!   in ancestor regions ([`exits_are_stable`]) reads their live-ins from
//!   it: ancestors are scheduled after their descendants and legal
//!   motions never change liveness outside their region, so those facts
//!   are still current at the region's turn.
//! * **Region-local solve.** Such a region summarizes only its own blocks
//!   and solves the dataflow over them, seeded from the boundary
//!   ([`Liveness::for_region`]) — cost proportional to the region, not
//!   the function. The per-instruction scheduling tables are likewise
//!   indexed by dense scope position ([`DataDeps::position`]).
//! * **Updates.** Liveness is kept current across motions ("this type of
//!   information has to be updated dynamically") by an incremental
//!   repair: only the source and target blocks change code, so their
//!   `use`/`def` summaries are re-derived and the fixed point re-solved
//!   over the region's blocks alone ([`Liveness::update_after_motion`]).
//!   Duplication and its dedup fold touch more blocks and re-solve the
//!   region from scratch, on the same path the region started on.
//! * **Fallback.** A whole-function [`Liveness::compute`] initializes
//!   regions with an exit into a non-ancestor region (say a loop falling
//!   into its sibling's header), lone regions scheduled through the
//!   public [`schedule_region`] (no pass to amortize a boundary solve
//!   over), the reference hot paths
//!   ([`SchedConfig::reference_hot_paths`], kept as the oracle), and the
//!   fault-injection switches. `SchedStats::liveness_region` and
//!   `SchedStats::liveness_full` count the two kinds of solve.
//!
//! Under debug builds and the [`SchedConfig::verify_each_pass`] gate, the
//! maintained sets are checked against a whole-function recompute on
//! every scope block, at region start and after every motion.

use crate::config::{SchedConfig, SchedLevel};
use crate::dcp::Heuristics;
use crate::stats::SchedStats;
use gis_cfg::{Cfg, NodeId, RegionGraph, RegionNode, RegionTree};
use gis_ir::{BlockId, DenseBitSet, Function, InstId, Reg};
use gis_machine::MachineDescription;
use gis_pdg::{Cspdg, DataDeps, Liveness};
use gis_trace::{MotionKind, NopObserver, RejectReason, SchedObserver, TieBreak, TraceEvent};
use std::collections::HashMap;

/// Sentinel for "not placed in this block pass" in the dense
/// [`Scratch::place_time`] table.
const UNPLACED: u64 = u64::MAX;
/// Sentinel for "no node" in the dense instruction→node table.
const NO_NODE: u32 = u32::MAX;

/// Schedules one region of `f`. Returns `false` when the region was
/// skipped (irreducible or over the §6 size limits); statistics accumulate
/// into `stats` either way.
pub fn schedule_region(
    f: &mut Function,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    rid: gis_cfg::RegionId,
    config: &SchedConfig,
    stats: &mut SchedStats,
) -> bool {
    schedule_region_observed(f, machine, cfg, tree, rid, config, stats, &mut NopObserver)
}

/// [`schedule_region`], reporting every decision — candidate blocks,
/// motions with their winning tie-break, §5.3 rejections, renames — to
/// `obs`. With the no-op observer the schedule is bit-identical to
/// `schedule_region`.
///
/// A lone region has no pass to amortize a boundary solve over, so its
/// liveness is a whole-function [`Liveness::compute`].
#[allow(clippy::too_many_arguments)]
pub fn schedule_region_observed<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    rid: gis_cfg::RegionId,
    config: &SchedConfig,
    stats: &mut SchedStats,
    obs: &mut O,
) -> bool {
    schedule_region_in_pass(f, machine, cfg, tree, rid, config, stats, obs, None)
}

/// [`schedule_region_observed`] inside a global pass: `pass_live` is the
/// pass-start [`Liveness::compute`] of the function. When every exit
/// successor of the region lies in an ancestor region
/// ([`exits_are_stable`]), its pass-start live-ins are still current and
/// the region's liveness is solved locally against them
/// ([`Liveness::for_region`]); otherwise — and for the reference hot
/// paths and the fault-injection switches, see [`solves_liveness_locally`]
/// — it falls back to a whole-function compute. Both give the same sets
/// on the region's blocks, so the schedule is the same either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_region_in_pass<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    rid: gis_cfg::RegionId,
    config: &SchedConfig,
    stats: &mut SchedStats,
    obs: &mut O,
    pass_live: Option<&Liveness>,
) -> bool {
    if config.level == SchedLevel::BasicBlockOnly {
        return false;
    }
    let region = rid.index() as u32;
    let skip = |stats: &mut SchedStats, obs: &mut O, reason: RejectReason| -> bool {
        stats.regions_skipped += 1;
        if obs.enabled() {
            obs.event(TraceEvent::RegionSkipped { region, reason });
        }
        false
    };
    // §6 size limits: at most 64 blocks / 256 instructions per region.
    let scope_blocks = subtree_blocks(tree, rid);
    if scope_blocks.len() > config.max_region_blocks {
        return skip(stats, obs, RejectReason::RegionTooManyBlocks);
    }
    let scope_insts: usize = scope_blocks.iter().map(|b| f.block(*b).len()).sum();
    if scope_insts > config.max_region_insts {
        return skip(stats, obs, RejectReason::RegionTooManyInsts);
    }
    let Ok(g) = RegionGraph::new(cfg, tree, rid) else {
        return skip(stats, obs, RejectReason::Irreducible);
    };
    if obs.enabled() {
        obs.event(TraceEvent::RegionBegin {
            region,
            blocks: scope_blocks
                .iter()
                .map(|&b| f.block(b).label().to_owned())
                .collect(),
        });
    }
    let cspdg = Cspdg::new(&g);

    // Node-level forward reachability (small graphs; dense matrix).
    let reach = reachability(&g);

    // Map every scope block to its node: direct blocks to their own node,
    // blocks of enclosed regions to the supernode of the enclosing child.
    let node_of: HashMap<BlockId, NodeId> = scope_blocks
        .iter()
        .map(|&b| (b, lift_block(&g, tree, rid, b)))
        .collect();

    let may_follow = |x: BlockId, y: BlockId| {
        let (nx, ny) = (node_of[&x], node_of[&y]);
        nx != ny && reach[nx.index()].contains(ny.index())
    };
    let mut deps = if config.reference_hot_paths {
        DataDeps::build_reference(f, machine, &scope_blocks, may_follow)
    } else {
        DataDeps::build(f, machine, &scope_blocks, may_follow)
    };
    stats.dep_edges += deps.num_edges();
    deps.reduce();
    stats.dep_edges_reduced += deps.num_edges();

    // Per-instruction tables are indexed by scope position
    // ([`DataDeps::position`]), so they follow the region's size.
    let n = deps.scope_order().len();
    let mut inst_node = vec![NO_NODE; n];
    for &b in &scope_blocks {
        for inst in f.block(b).insts() {
            inst_node[scope_pos(&deps, inst.id)] = node_of[&b].index() as u32;
        }
    }
    let boundary = pass_live.filter(|_| {
        solves_liveness_locally(config)
            && exits_are_stable(tree, rid, &exit_blocks(f, &scope_blocks))
    });
    let liveness = solve_liveness(f, cfg, &scope_blocks, boundary, stats);

    stats.scratch_allocs += 1;
    let mut pass = RegionPass {
        machine,
        cfg,
        config,
        deps: &deps,
        reach: &reach,
        scope: &scope_blocks,
        boundary,
        placed: DenseBitSet::with_capacity(n),
        inst_node,
        liveness,
        scratch: Scratch::new(machine, n),
        stats,
        obs,
    };
    if boundary.is_some() {
        pass.verify_liveness(f, || "at region start".to_owned());
    }

    for &node in g.topo_order() {
        if let RegionNode::Block(a) = g.node(node) {
            pass.schedule_block(f, &g, &cspdg, node, a);
        }
    }
    pass.stats.regions_scheduled += 1;
    true
}

/// Whether `config` lets regions solve liveness locally against the
/// pass-start boundary. The reference hot paths keep the whole-function
/// solve as the oracle. The fault-injection switches make motions that
/// are *not* legal, which can change liveness outside the region and so
/// void the boundary argument; they too solve whole-function, so their
/// miscompiles surface in execution, where the self-tests look for them.
pub(crate) fn solves_liveness_locally(config: &SchedConfig) -> bool {
    !config.reference_hot_paths
        && !config.inject_skip_live_on_exit
        && !config.inject_skip_dup_pred_check
}

/// The region's liveness: solved over `scope` against `boundary` when the
/// region may solve locally, otherwise over the whole function.
fn solve_liveness(
    f: &Function,
    cfg: &Cfg,
    scope: &[BlockId],
    boundary: Option<&Liveness>,
    stats: &mut SchedStats,
) -> Liveness {
    match boundary {
        Some(pass_live) => {
            stats.liveness_region += 1;
            Liveness::for_region(f, cfg, scope, pass_live)
        }
        None => {
            stats.liveness_full += 1;
            Liveness::compute(f, cfg)
        }
    }
}

/// All blocks of a region's subtree (direct blocks plus nested regions').
pub(crate) fn subtree_blocks(tree: &RegionTree, rid: gis_cfg::RegionId) -> Vec<BlockId> {
    let mut out = Vec::new();
    let mut stack = vec![rid];
    while let Some(r) = stack.pop() {
        let reg = tree.region(r);
        out.extend(reg.blocks.iter().copied());
        stack.extend(reg.children.iter().copied());
    }
    out.sort();
    out
}

/// Blocks outside `scope` that some scope block branches or falls
/// through into, ascending and deduplicated. `scope` must be sorted.
pub(crate) fn exit_blocks(f: &Function, scope: &[BlockId]) -> Vec<BlockId> {
    let mut out = Vec::new();
    for &b in scope {
        for s in f.succs(b) {
            if scope.binary_search(&s).is_err() {
                out.push(s);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether every exit successor lives in a strict ancestor of `rid` —
/// the condition under which its pass-start live-ins cannot go stale
/// before `rid`'s turn: ancestors are scheduled after descendants
/// ([`RegionTree::schedule_order`] is innermost-first), no other region
/// may mutate an ancestor's direct blocks, and legal motions inside a
/// region never change liveness outside it. A block in a non-ancestor
/// region — say the header of the sibling loop a loop falls into — can
/// be scheduled, and its live-ins changed, earlier in the same pass.
pub(crate) fn exits_are_stable(
    tree: &RegionTree,
    rid: gis_cfg::RegionId,
    exits: &[BlockId],
) -> bool {
    let mut ancestors = Vec::new();
    let mut cur = tree.region(rid).parent;
    while let Some(p) = cur {
        ancestors.push(p);
        cur = tree.region(p).parent;
    }
    exits
        .iter()
        .all(|&s| ancestors.contains(&tree.innermost(s)))
}

/// Whether a region passes the §6 size gates that
/// [`schedule_region_observed`] applies before building any analyses.
/// The parallel driver uses this to predict — without mutating anything —
/// which regions [`schedule_region_observed`] will skip. The prediction
/// made on the pre-pass function matches the sequential outcome exactly
/// because regions are disjoint and each is visited once per pass: the
/// only transformation that changes an instruction count — duplication —
/// mutates blocks of the region *currently being scheduled*, after its
/// own size gate was read, and never another region's.
pub(crate) fn region_within_size_limits(
    f: &Function,
    tree: &RegionTree,
    rid: gis_cfg::RegionId,
    config: &SchedConfig,
) -> bool {
    let scope_blocks = subtree_blocks(tree, rid);
    if scope_blocks.len() > config.max_region_blocks {
        return false;
    }
    let scope_insts: usize = scope_blocks.iter().map(|b| f.block(*b).len()).sum();
    scope_insts <= config.max_region_insts
}

/// Dense forward reachability over a region graph (reflexive), one bit
/// set per start node.
fn reachability(g: &RegionGraph) -> Vec<DenseBitSet> {
    let n = g.num_nodes();
    let mut reach = vec![DenseBitSet::with_capacity(n); n];
    for (start, row) in reach.iter_mut().enumerate() {
        let mut stack = vec![NodeId::from_index(start)];
        row.insert(start);
        while let Some(x) = stack.pop() {
            for &(to, _) in g.succs(x) {
                if row.insert(to.index()) {
                    stack.push(to);
                }
            }
        }
    }
    reach
}

/// The node a block maps to in this region's graph: itself when direct,
/// otherwise the supernode of the direct child that encloses it.
fn lift_block(g: &RegionGraph, tree: &RegionTree, rid: gis_cfg::RegionId, b: BlockId) -> NodeId {
    if let Some(n) = g.node_of_block(b) {
        return n;
    }
    // Walk up the region tree to the direct child of `rid`.
    let mut cur = tree.innermost(b);
    loop {
        let parent = tree.region(cur).parent.expect("b is inside rid's subtree");
        if parent == rid {
            break;
        }
        cur = parent;
    }
    for i in 0..g.num_nodes() {
        if g.node(NodeId::from_index(i)) == RegionNode::Inner(cur) {
            return NodeId::from_index(i);
        }
    }
    unreachable!("supernode for child region exists");
}

struct RegionPass<'a, O: SchedObserver> {
    machine: &'a MachineDescription,
    cfg: &'a Cfg,
    config: &'a SchedConfig,
    deps: &'a DataDeps,
    reach: &'a [DenseBitSet],
    /// The region subtree's blocks, ascending — the incremental
    /// liveness repair re-solves over exactly these.
    scope: &'a [BlockId],
    /// The pass-start liveness the region solves against, when it may
    /// solve locally; `None` means whole-function solves.
    boundary: Option<&'a Liveness>,
    /// Instructions placed by this region pass (any block), by scope
    /// position.
    placed: DenseBitSet,
    /// Current region-graph node index of every scope instruction, by
    /// scope position.
    inst_node: Vec<u32>,
    liveness: Liveness,
    scratch: Scratch,
    stats: &'a mut SchedStats,
    obs: &'a mut O,
}

/// Per-region scratch buffers for [`RegionPass::schedule_block`]'s inner
/// loops: allocated once per region, reset (capacity kept) per block, so
/// the cycle-by-cycle scheduling loop itself performs no heap
/// allocation. The `scratch_allocs` / `scratch_reuses` stats count
/// bundle creations vs block passes that reused one. Every
/// per-instruction table is indexed by scope position
/// ([`DataDeps::position`]) and sized by the region.
struct Scratch {
    cands: Vec<Candidate>,
    new_order: Vec<InstId>,
    /// Issue cycle per candidate ([`UNPLACED`] when not placed); reset
    /// via the candidate list, not a full sweep.
    place_time: Vec<u64>,
    /// Candidate-set membership.
    in_s: DenseBitSet,
    /// §5.3-rejected candidates.
    rejected: DenseBitSet,
    /// Busy-until cycle per functional unit, by unit kind.
    units: Vec<Vec<u64>>,
    /// Final position per placed instruction, for the block reorder.
    rank: Vec<u32>,
    /// Ever used by a block pass already (drives `scratch_reuses`).
    used: bool,
}

impl Scratch {
    fn new(machine: &MachineDescription, scope_insts: usize) -> Self {
        Scratch {
            cands: Vec::new(),
            new_order: Vec::new(),
            place_time: vec![UNPLACED; scope_insts],
            in_s: DenseBitSet::with_capacity(scope_insts),
            rejected: DenseBitSet::with_capacity(scope_insts),
            units: machine
                .unit_kinds()
                .map(|k| vec![0u64; machine.unit_count(k) as usize])
                .collect(),
            rank: vec![0; scope_insts],
            used: false,
        }
    }

    /// Returns the buffers to their empty state, keeping capacity.
    fn reset(&mut self) {
        for &c in &self.cands {
            self.place_time[c.pos] = UNPLACED;
        }
        self.cands.clear();
        self.new_order.clear();
        self.in_s.clear();
        self.rejected.clear();
        for u in &mut self.units {
            u.fill(0);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: InstId,
    /// Scope position of `id` ([`DataDeps::position`]): the index into
    /// the region's dense per-instruction tables, which also orders
    /// candidates by original program order.
    pos: usize,
    home: BlockId,
    useful: bool,
    /// Execution probability given the target block executes (1.0 for
    /// useful candidates and when no profile is supplied).
    prob: f64,
    /// Duplication-based candidate ([`SchedConfig::duplication`]): the
    /// home block is a join of which the target is the last predecessor;
    /// committing relocates the original and mints a copy in every
    /// sibling predecessor. Exempt from the §5.3 live-on-exit gate — the
    /// motion preserves execution counts, it is not speculative.
    dup: bool,
}

/// The scope position of a scope instruction ([`DataDeps::position`]).
fn scope_pos(deps: &DataDeps, id: InstId) -> usize {
    deps.position(id).expect("scope instruction")
}

/// The scheduler's priority key for a candidate: useful-before-
/// speculative, probability, `D`, `CP`, original order (§5.2 ladder).
type PriorityKey = (bool, u32, u32, u32, std::cmp::Reverse<usize>);

/// Which rung of the §5.2 ladder separated the winner from the runner-up.
fn tie_break(best: PriorityKey, second: Option<PriorityKey>) -> TieBreak {
    let Some(s) = second else {
        return TieBreak::Sole;
    };
    if best.0 != s.0 {
        TieBreak::Usefulness
    } else if best.1 != s.1 {
        TieBreak::Probability
    } else if best.2 != s.2 {
        TieBreak::DelayHeuristic
    } else if best.3 != s.3 {
        TieBreak::CriticalPath
    } else {
        TieBreak::OriginalOrder
    }
}

/// How a CSPDG node fares as a speculative candidate block for `A`.
#[derive(PartialEq)]
enum SpecClass {
    /// Passes every gate: schedule from it.
    Eligible,
    /// Structurally fine but below the probability threshold.
    ProbGate,
    /// Not a block, already a candidate, or would duplicate (Definition 6).
    Ineligible,
}

impl<O: SchedObserver> RegionPass<'_, O> {
    fn schedule_block(
        &mut self,
        f: &mut Function,
        g: &RegionGraph,
        cspdg: &Cspdg,
        node_a: NodeId,
        a: BlockId,
    ) {
        let enabled = self.obs.enabled();
        // ---- Candidate blocks. ----------------------------------------
        let equiv: Vec<NodeId> = cspdg.equiv_dominated(node_a);
        let mut useful_blocks: Vec<NodeId> = equiv.clone();
        let mut spec_blocks: Vec<(NodeId, f64)> = Vec::new();
        // Joins eligible for duplication-based motion out of `A`, with
        // their sibling predecessor blocks (ascending), and joins that
        // were identified but failed the structural guards (reported as
        // `WouldDuplicate` rejections). Both stay empty unless
        // [`SchedConfig::duplication`] is on.
        let mut dup_joins: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        let mut dup_rejected: Vec<BlockId> = Vec::new();
        if self.config.level == SchedLevel::Speculative {
            // Probability that the child of a CD edge executes, from the
            // branch profile when one is supplied (§1's profile-guided
            // speculation); 1.0 when unknown.
            let prob_of = |parent: NodeId, label: gis_cfg::EdgeLabel| -> f64 {
                let Some(profile) = &self.config.profile else {
                    return 1.0;
                };
                let RegionNode::Block(pb) = g.node(parent) else {
                    return 1.0;
                };
                let Some(last) = f.block(pb).last() else {
                    return 1.0;
                };
                match (profile.taken_probability(last.id), label) {
                    (Some(p), gis_cfg::EdgeLabel::Taken) => p,
                    (Some(p), gis_cfg::EdgeLabel::NotTaken) => 1.0 - p,
                    _ => 1.0,
                }
            };
            let classify = |n: NodeId, prob: f64, spec: &Vec<(NodeId, f64)>| -> SpecClass {
                let structural = cspdg.is_block(n)
                    && n != node_a
                    && !useful_blocks.contains(&n)
                    && !spec.iter().any(|&(b, _)| b == n)
                    // No duplication (Definition 6): A must dominate B.
                    && cspdg.dom().strictly_dominates(node_a, n);
                if !structural {
                    SpecClass::Ineligible
                } else if prob < self.config.min_speculation_probability {
                    SpecClass::ProbGate
                } else {
                    SpecClass::Eligible
                }
            };
            // Breadth-first over CSPDG children: depth 1 reproduces the
            // paper's prototype; larger `max_speculation_branches` crosses
            // more branches, with path probabilities multiplying.
            let mut frontier: Vec<(NodeId, f64)> = std::iter::once((node_a, 1.0))
                .chain(equiv.iter().map(|&e| (e, 1.0)))
                .collect();
            for _ in 0..self.config.max_speculation_branches {
                let mut next = Vec::new();
                for &(n, p) in &frontier {
                    for &(c, l) in cspdg.cd_children(n) {
                        let prob = p * prob_of(n, l);
                        match classify(c, prob, &spec_blocks) {
                            SpecClass::Eligible => {
                                spec_blocks.push((c, prob));
                                next.push((c, prob));
                            }
                            SpecClass::ProbGate => {
                                if enabled {
                                    if let RegionNode::Block(cb) = g.node(c) {
                                        self.obs.event(TraceEvent::SpecBlockRejected {
                                            target: f.block(a).label().to_owned(),
                                            block: f.block(cb).label().to_owned(),
                                            prob,
                                            reason: RejectReason::ProbabilityGate,
                                        });
                                    }
                                }
                            }
                            SpecClass::Ineligible => {}
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
            // Purely for the trace: blocks one branch past the speculation
            // bound that would otherwise have been candidates.
            if enabled {
                for &(n, p) in &frontier {
                    for &(c, l) in cspdg.cd_children(n) {
                        let prob = p * prob_of(n, l);
                        if classify(c, prob, &spec_blocks) == SpecClass::Eligible {
                            if let RegionNode::Block(cb) = g.node(c) {
                                self.obs.event(TraceEvent::SpecBlockRejected {
                                    target: f.block(a).label().to_owned(),
                                    block: f.block(cb).label().to_owned(),
                                    prob,
                                    reason: RejectReason::SpeculationDepth,
                                });
                            }
                        }
                    }
                }
            }
            // ---- Duplication-based motion (beyond the paper; §7's
            // "more aggressive" direction). A region-graph successor of
            // `A` that is a join — several predecessors, so `A` cannot
            // dominate it — is beyond both Definition 6 (useful motion
            // would duplicate) and Definition 7 (speculation requires
            // dominance). With the gate on, such a join still becomes a
            // candidate block when every predecessor's only successor is
            // the join itself: the instruction is then *copied* to the
            // end of each sibling predecessor while the original moves
            // into `A`, so each path into the join executes it exactly
            // once — the motion preserves execution counts rather than
            // gambling on a branch. `A` must additionally be the
            // topologically last predecessor, so every sibling's
            // schedule is already final when the copies are minted.
            if self.config.duplication {
                let topo = g.topo_order();
                let topo_pos = |n: NodeId| topo.iter().position(|&x| x == n).unwrap_or(usize::MAX);
                for &(s, _) in g.succs(node_a) {
                    // Supernode successors are loops: never duplicate
                    // into a loop body.
                    let RegionNode::Block(sb) = g.node(s) else {
                        continue;
                    };
                    if s == node_a
                        || useful_blocks.contains(&s)
                        || spec_blocks.iter().any(|&(b, _)| b == s)
                        || dup_joins.iter().any(|(b, _)| *b == sb)
                        || dup_rejected.contains(&sb)
                    {
                        continue; // reachable by single-target motion, or seen
                    }
                    let mut preds: Vec<NodeId> = Vec::new();
                    for &(p, _) in g.preds(s) {
                        if !preds.contains(&p) {
                            preds.push(p);
                        }
                    }
                    if preds.len() < 2 {
                        continue; // not a join: Definitions 6/7 cover it
                    }
                    let safe = match gis_pdg::duplication_pred_set(self.cfg, g, s) {
                        Some(set) => Some(set),
                        // Planted-miscompile hook for the gis-check
                        // self-test: pretend the fall-through guard
                        // passed, so copies land above conditional
                        // branches and run on paths that bypass the join
                        // (see SchedConfig::inject_skip_dup_pred_check).
                        None if self.config.inject_skip_dup_pred_check
                            && preds
                                .iter()
                                .all(|&p| matches!(g.node(p), RegionNode::Block(_))) =>
                        {
                            Some(preds.clone())
                        }
                        None => None,
                    };
                    match safe {
                        Some(set) => {
                            // Only the last predecessor duplicates; the
                            // earlier siblings stay silent — the motion
                            // is deferred to this pass's last visitor,
                            // not rejected.
                            let a_pos = topo_pos(node_a);
                            if set.iter().all(|&p| p == node_a || topo_pos(p) < a_pos) {
                                let mut sibs: Vec<BlockId> = set
                                    .iter()
                                    .filter(|&&p| p != node_a)
                                    .filter_map(|&p| match g.node(p) {
                                        RegionNode::Block(b) => Some(b),
                                        _ => None,
                                    })
                                    .collect();
                                sibs.sort();
                                dup_joins.push((sb, sibs));
                            }
                        }
                        None => dup_rejected.push(sb),
                    }
                }
            }
        }
        useful_blocks.insert(0, node_a);
        if enabled {
            let label = |n: &NodeId| match g.node(*n) {
                RegionNode::Block(b) => Some(f.block(b).label().to_owned()),
                _ => None,
            };
            self.obs.event(TraceEvent::CandidateBlocks {
                target: f.block(a).label().to_owned(),
                equivalent: equiv.iter().filter_map(&label).collect(),
                speculative: spec_blocks
                    .iter()
                    .filter_map(|(n, p)| label(n).map(|l| (l, *p)))
                    .collect(),
            });
        }

        // ---- Candidate instructions. ----------------------------------
        if self.scratch.used {
            self.stats.scratch_reuses += 1;
        }
        self.scratch.used = true;
        self.scratch.reset();
        let mut a_remaining = 0usize;
        let mut a_branch: Option<InstId> = None;
        for inst in f.block(a).insts() {
            if inst.op.is_branch() {
                a_branch = Some(inst.id);
            }
            a_remaining += 1;
            self.scratch.cands.push(Candidate {
                id: inst.id,
                pos: scope_pos(self.deps, inst.id),
                home: a,
                useful: true,
                prob: 1.0,
                dup: false,
            });
        }
        for &n in useful_blocks.iter().skip(1) {
            let RegionNode::Block(b) = g.node(n) else {
                continue;
            };
            for inst in f.block(b).insts() {
                if inst.op.may_cross_block() {
                    self.scratch.cands.push(Candidate {
                        id: inst.id,
                        pos: scope_pos(self.deps, inst.id),
                        home: b,
                        useful: true,
                        prob: 1.0,
                        dup: false,
                    });
                }
            }
        }
        for &(n, prob) in &spec_blocks {
            let RegionNode::Block(b) = g.node(n) else {
                continue;
            };
            for inst in f.block(b).insts() {
                let class = inst.op.class();
                if inst.op.may_speculate()
                    && (self.config.speculative_loads || class != gis_ir::OpClass::Load)
                {
                    self.scratch.cands.push(Candidate {
                        id: inst.id,
                        pos: scope_pos(self.deps, inst.id),
                        home: b,
                        useful: false,
                        prob,
                        dup: false,
                    });
                } else if enabled && !inst.op.is_branch() {
                    self.obs.event(TraceEvent::CandidateRejected {
                        inst: inst.id.index() as u32,
                        home: f.block(b).label().to_owned(),
                        target: f.block(a).label().to_owned(),
                        reason: if inst.op.may_speculate() {
                            RejectReason::LoadSpeculationDisabled
                        } else {
                            RejectReason::MayNotSpeculate
                        },
                    });
                }
            }
        }
        // Instructions of eligible duplication joins: the speculation
        // operand gates apply (no side effects cross a block boundary,
        // loads obey the config), but not the §5.3 register gate.
        for (b, _) in &dup_joins {
            for inst in f.block(*b).insts() {
                let class = inst.op.class();
                if inst.op.may_speculate()
                    && (self.config.speculative_loads || class != gis_ir::OpClass::Load)
                {
                    self.scratch.cands.push(Candidate {
                        id: inst.id,
                        pos: scope_pos(self.deps, inst.id),
                        home: *b,
                        useful: false,
                        prob: 1.0,
                        dup: true,
                    });
                } else if enabled && !inst.op.is_branch() {
                    self.obs.event(TraceEvent::CandidateRejected {
                        inst: inst.id.index() as u32,
                        home: f.block(*b).label().to_owned(),
                        target: f.block(a).label().to_owned(),
                        reason: if inst.op.may_speculate() {
                            RejectReason::LoadSpeculationDisabled
                        } else {
                            RejectReason::MayNotSpeculate
                        },
                    });
                }
            }
        }
        // Joins whose shape fails the duplication guards (a predecessor
        // branches around the join, or the join heads a loop): their
        // movable instructions are reported as needing duplication.
        for &b in &dup_rejected {
            for inst in f.block(b).insts() {
                if inst.op.may_speculate()
                    && (self.config.speculative_loads || inst.op.class() != gis_ir::OpClass::Load)
                {
                    self.stats.rejected_would_duplicate += 1;
                    if enabled {
                        self.obs.event(TraceEvent::CandidateRejected {
                            inst: inst.id.index() as u32,
                            home: f.block(b).label().to_owned(),
                            target: f.block(a).label().to_owned(),
                            reason: RejectReason::WouldDuplicate,
                        });
                    }
                }
            }
        }
        for c in &self.scratch.cands {
            self.scratch.in_s.insert(c.pos);
        }

        // Per-block D/CP heuristics over current block contents.
        let mut heur: HashMap<BlockId, Heuristics> = HashMap::new();
        for c in &self.scratch.cands {
            heur.entry(c.home)
                .or_insert_with(|| Heuristics::for_block(f, self.machine, self.deps, c.home));
        }

        // ---- Cycle-by-cycle list scheduling. --------------------------
        let width = self.machine.dispatch_width();
        let mut t: u64 = 0;

        'cycles: while a_remaining > 0 {
            let mut issued = 0u32;
            'picks: loop {
                let mut best: Option<(Candidate, PriorityKey)> = None;
                // The runner-up's key, tracked only for the trace's
                // tie-break attribution.
                let mut second: Option<PriorityKey> = None;
                for c in &self.scratch.cands {
                    if self.scratch.place_time[c.pos] != UNPLACED
                        || self.scratch.rejected.contains(c.pos)
                    {
                        continue;
                    }
                    // The block's own branch waits for the rest of the
                    // block (branch order preserved; blocks keep their
                    // terminator last).
                    if Some(c.id) == a_branch && a_remaining > 1 {
                        continue;
                    }
                    if !self.ready(node_a, c.id, t) {
                        continue;
                    }
                    let pos = f.block(c.home).position(c.id).expect("candidate exists");
                    let op = &f.block(c.home).inst_at(pos).op;
                    let kind = self.machine.unit_of(op.class());
                    if !self.scratch.units[kind.index()]
                        .iter()
                        .any(|&busy| busy <= t)
                    {
                        continue;
                    }
                    let h = &heur[&c.home];
                    let key = (
                        c.useful,
                        (c.prob * 1000.0) as u32, // likelier gambles first
                        h.d(c.id),
                        h.cp(c.id),
                        std::cmp::Reverse(c.pos),
                    );
                    if best.as_ref().is_none_or(|(_, bk)| key > *bk) {
                        if enabled {
                            second = best.map(|(_, bk)| bk);
                        }
                        best = Some((*c, key));
                    } else if enabled && second.is_none_or(|sk| key > sk) {
                        second = Some(key);
                    }
                }
                let Some((cand, best_key)) = best else {
                    break 'picks;
                };

                // CSE at motion commit: when a sibling copy of an
                // instruction already placed into A comes up, it folds
                // into the placed one instead of moving — both compute
                // the same value from the same operand definitions.
                // Checked before the §5.3 gate: a fold deletes the
                // candidate rather than moving it, so it cannot clobber
                // anything no matter what is live on exit.
                if self.config.duplication && cand.home != a && self.try_fold_duplicate(f, a, &cand)
                {
                    continue;
                }

                // §5.3: speculative motion may not clobber a register live
                // on exit from A — unless a local rename fixes it.
                // Duplication candidates are exempt: every predecessor's
                // only successor is the join, so live-on-exit from A is
                // exactly live-on-entry to the join, and any candidate
                // whose definition an earlier join instruction still
                // needs is held back by the dependence test instead.
                if cand.home != a
                    && !cand.useful
                    && !cand.dup
                    && !self.speculation_allowed(f, a, &cand)
                {
                    self.scratch.rejected.insert(cand.pos);
                    if enabled {
                        self.obs.event(TraceEvent::Rejected {
                            inst: cand.id.index() as u32,
                            home: f.block(cand.home).label().to_owned(),
                            target: f.block(a).label().to_owned(),
                            reason: RejectReason::LiveOnExit,
                        });
                    }
                    continue;
                }

                // Issue.
                let pos = f.block(cand.home).position(cand.id).expect("exists");
                let class = f.block(cand.home).inst_at(pos).op.class();
                let kind = self.machine.unit_of(class);
                let exec = self.machine.exec_time(class) as u64;
                let slot = self.scratch.units[kind.index()]
                    .iter()
                    .position(|&busy| busy <= t)
                    .expect("free unit checked");
                self.scratch.units[kind.index()][slot] = t + exec;
                self.scratch.place_time[cand.pos] = t;
                self.placed.insert(cand.pos);
                self.scratch.new_order.push(cand.id);

                if cand.home == a {
                    if enabled {
                        self.obs.event(TraceEvent::Placed {
                            inst: cand.id.index() as u32,
                            block: f.block(a).label().to_owned(),
                            cycle: t,
                            tie: tie_break(best_key, second),
                        });
                    }
                    a_remaining -= 1;
                    if a_remaining == 0 {
                        break 'cycles;
                    }
                } else if cand.dup {
                    // Duplication commit: the original keeps its id and
                    // moves into A like any motion; a fresh-id copy lands
                    // at the end of every sibling predecessor, before its
                    // terminator. Each sibling is already scheduled and
                    // falls through into the join unconditionally, so the
                    // copy observes exactly the values the original would
                    // have seen along that path, and each path into the
                    // join still executes the operation exactly once.
                    let copy_op = {
                        let pos = f.block(cand.home).position(cand.id).expect("exists");
                        f.block(cand.home).inst_at(pos).op.clone()
                    };
                    let block_a = f.block(a);
                    let at = block_a.len()
                        - usize::from(block_a.last().is_some_and(|i| i.op.is_branch()));
                    f.relink_inst(cand.id, cand.home, a, at);
                    self.inst_node[cand.pos] = node_a.index() as u32;
                    let sibs: &[BlockId] = dup_joins
                        .iter()
                        .find_map(|(b, s)| (*b == cand.home).then_some(s.as_slice()))
                        .expect("dup candidate has a recorded join");
                    let mut copies: Vec<(BlockId, InstId)> = Vec::with_capacity(sibs.len());
                    for &p in sibs {
                        let id = f.fresh_inst_id();
                        f.record_dup_origin(id, cand.id);
                        let bp = f.block(p);
                        let ins =
                            bp.len() - usize::from(bp.last().is_some_and(|i| i.op.is_branch()));
                        f.block_mut(p)
                            .insert(ins, gis_ir::Inst::new(id, copy_op.clone()));
                        copies.push((p, id));
                    }
                    self.stats.moved_duplicated += 1;
                    self.stats.dup_copies_minted += copies.len();
                    if enabled {
                        self.obs.event(TraceEvent::Duplicated {
                            inst: cand.id.index() as u32,
                            home: f.block(cand.home).label().to_owned(),
                            into: f.block(a).label().to_owned(),
                            cycle: t,
                            copies: copies
                                .iter()
                                .map(|&(b, id)| (f.block(b).label().to_owned(), id.index() as u32))
                                .collect(),
                        });
                    }
                    // The join, A, and every sibling changed code: the
                    // incremental repair models a single source/target
                    // pair, so duplication pays for a fresh solve (still
                    // region-local when the region solves locally).
                    self.resolve_liveness(f, || {
                        format!("after duplicating {} from {} into {a}", cand.id, cand.home)
                    });
                } else {
                    if enabled {
                        self.obs.event(TraceEvent::Moved {
                            inst: cand.id.index() as u32,
                            from: f.block(cand.home).label().to_owned(),
                            into: f.block(a).label().to_owned(),
                            cycle: t,
                            kind: if cand.useful {
                                MotionKind::Useful
                            } else {
                                MotionKind::Speculative
                            },
                            tie: tie_break(best_key, second),
                        });
                    }
                    // Physical upward motion into A (kept before A's
                    // branch; final order applied at end of pass). Under
                    // the arena representation this relinks one index:
                    // the payload never moves.
                    let block_a = f.block(a);
                    let at = block_a.len()
                        - usize::from(block_a.last().is_some_and(|i| i.op.is_branch()));
                    f.relink_inst(cand.id, cand.home, a, at);
                    self.inst_node[cand.pos] = node_a.index() as u32;
                    if cand.useful {
                        self.stats.moved_useful += 1;
                    } else {
                        self.stats.moved_speculative += 1;
                    }
                    // §5.3: liveness must be updated after each motion.
                    // Only A and the home block changed code, so an
                    // incremental region-local repair suffices (any
                    // rename done by `speculation_allowed` also touched
                    // only the home block).
                    if self.config.reference_hot_paths {
                        self.liveness = Liveness::compute(f, self.cfg);
                        self.stats.liveness_full += 1;
                    } else {
                        self.liveness
                            .update_after_motion(f, self.cfg, self.scope, a, cand.home);
                        self.stats.liveness_incremental += 1;
                        self.verify_liveness(f, || {
                            format!("after moving {} from {} into {a}", cand.id, cand.home)
                        });
                    }
                }

                issued += 1;
                if issued >= width {
                    break 'picks;
                }
            }
            t += 1;
        }

        // ---- Apply A's final order. ------------------------------------
        debug_assert_eq!(
            f.block(a).len(),
            self.scratch.new_order.len(),
            "every instruction of A was scheduled"
        );
        for (i, id) in self.scratch.new_order.iter().enumerate() {
            self.scratch.rank[scope_pos(self.deps, *id)] = i as u32;
        }
        let rank = &self.scratch.rank;
        f.block_mut(a)
            .sort_by_key(|inst| rank[scope_pos(self.deps, inst.id)]);
    }

    /// Whether all data dependences into `id` are fulfilled at cycle `t`.
    fn ready(&self, node_a: NodeId, id: InstId, t: u64) -> bool {
        for e in self.deps.preds(id) {
            let from = scope_pos(self.deps, e.from);
            let tp = self.scratch.place_time[from];
            if tp != UNPLACED {
                // Placed in this very block pass: timing applies.
                if tp + e.sep() as u64 > t {
                    return false;
                }
            } else if self.placed.contains(from) {
                // Placed in an earlier block of this region: the paper's
                // per-block restart; interlocks cover residual delays.
            } else if self.scratch.in_s.contains(from) {
                return false; // will be scheduled in this pass, wait for it
            } else {
                // Outside the candidate set: blocked when it could still
                // execute between A and the candidate's home block.
                let pn = self.inst_node[from];
                if self.reach[node_a.index()].contains(pn as usize) {
                    return false;
                }
            }
        }
        true
    }

    /// CSE-style cleanup of redundant duplication copies, applied when a
    /// candidate is about to move into `a`: if an instruction sharing the
    /// candidate's duplication origin — its sibling copy, or the original
    /// itself — is already placed in `a` with an identical op, the
    /// candidate is deleted instead of moved and aliases the placed
    /// instruction's cycle. Sound because both read the same operand
    /// definitions: any definition this pass placed into `a` must sit
    /// before the placed twin (checked here), and any definition left
    /// unplaced is upstream of `a` — the dependence test never releases a
    /// candidate whose producer could still run between `a` and its home.
    fn try_fold_duplicate(&mut self, f: &mut Function, a: BlockId, cand: &Candidate) -> bool {
        let root = f.dup_root(cand.id);
        if root == cand.id && f.dup_origins().all(|(_, r)| r != root) {
            return false; // not part of any duplication family
        }
        let Some(jpos) = self
            .scratch
            .new_order
            .iter()
            .position(|&j| j != cand.id && f.dup_root(j) == root)
        else {
            return false;
        };
        let j = self.scratch.new_order[jpos];
        let cpos = f.block(cand.home).position(cand.id).expect("exists");
        let Some(japos) = f.block(a).position(j) else {
            return false; // twin not (or no longer) in a
        };
        if f.block(a).inst_at(japos).op != f.block(cand.home).inst_at(cpos).op {
            return false; // diverged (e.g. a speculative rename): keep both
        }
        for e in self.deps.preds(cand.id) {
            if self.scratch.place_time[scope_pos(self.deps, e.from)] == UNPLACED {
                continue; // upstream of a on every path: same value
            }
            match self.scratch.new_order.iter().position(|&x| x == e.from) {
                Some(p) if p < jpos => {}
                _ => return false, // placed after the twin: values differ
            }
        }
        f.block_mut(cand.home).remove(cand.id);
        self.scratch.place_time[cand.pos] = self.scratch.place_time[scope_pos(self.deps, j)];
        self.placed.insert(cand.pos);
        self.stats.dup_copies_deduped += 1;
        self.resolve_liveness(f, || {
            format!("after folding {} from {} into {a}", cand.id, cand.home)
        });
        true
    }

    /// Re-solves liveness from scratch after a motion the incremental
    /// repair cannot model, on the same path — region-local or
    /// whole-function — the region started on.
    fn resolve_liveness(&mut self, f: &Function, when: impl FnOnce() -> String) {
        self.liveness = solve_liveness(f, self.cfg, self.scope, self.boundary, self.stats);
        if self.boundary.is_some() {
            self.verify_liveness(f, when);
        }
    }

    /// The liveness differential check: under debug builds or
    /// [`SchedConfig::verify_each_pass`], panics unless the maintained
    /// sets equal a whole-function [`Liveness::compute`] on every scope
    /// block.
    fn verify_liveness(&self, f: &Function, when: impl FnOnce() -> String) {
        if !(cfg!(debug_assertions) || self.config.verify_each_pass.is_some()) {
            return;
        }
        let full = Liveness::compute(f, self.cfg);
        if let Some(b) = self.liveness.first_disagreement(&full, self.scope) {
            panic!(
                "{} liveness diverged from a full recompute at block {} {}",
                if self.boundary.is_some() {
                    "region-local"
                } else {
                    "incremental"
                },
                f.block(b).label(),
                when()
            );
        }
    }

    /// §5.3 gate for a speculative candidate, with the renaming escape.
    fn speculation_allowed(&mut self, f: &mut Function, a: BlockId, cand: &Candidate) -> bool {
        let bid = cand.home;
        let pos = f.block(bid).position(cand.id).expect("exists");
        let op = &f.block(bid).inst_at(pos).op;
        let clobbered: Vec<Reg> = op
            .defs()
            .into_iter()
            .filter(|&r| self.liveness.is_live_out(a, r))
            .collect();
        if clobbered.is_empty() {
            return true;
        }
        // Planted-miscompile hook for the gis-check self-test: pretend the
        // live-on-exit guard passed, letting the speculated definition
        // clobber a live register (see SchedConfig::inject_skip_live_on_exit).
        if self.config.inject_skip_live_on_exit {
            return true;
        }
        if !self.config.speculative_renaming || op.has_tied_base() {
            self.stats.rejected_live_out += 1;
            return false;
        }
        // Rename each clobbered definition when its du-chain is local to
        // the home block: the uses between the definition and the next
        // redefinition (or block end, provided the register is dead on
        // exit from the home block) see exactly this definition.
        for r in &clobbered {
            if !self.chain_is_local(f, bid, pos, *r) {
                self.stats.rejected_live_out += 1;
                return false;
            }
        }
        for r in clobbered {
            let fresh = f.fresh_reg(r.class());
            let mut block = f.block_mut(bid);
            let len = block.len();
            for p in pos..len {
                let op = &mut block.inst_mut(p).op;
                if p > pos {
                    op.map_uses(|x| if x == r { fresh } else { x });
                    if op.defs().contains(&r) {
                        break;
                    }
                } else {
                    op.map_defs(|x| if x == r { fresh } else { x });
                }
            }
            self.stats.renamed_speculative += 1;
            if self.obs.enabled() {
                self.obs.event(TraceEvent::Renamed {
                    inst: cand.id.index() as u32,
                    home: f.block(bid).label().to_owned(),
                    old: r.to_string(),
                    new: fresh.to_string(),
                });
            }
        }
        true
    }

    /// Whether the du-chain of the definition of `r` at `(bid, pos)` is
    /// contained in `bid` (see [`RegionPass::speculation_allowed`]).
    fn chain_is_local(&self, f: &Function, bid: BlockId, pos: usize, r: Reg) -> bool {
        for inst in f.block(bid).insts().skip(pos + 1) {
            // An update-form base both uses and defines `r` in one field;
            // the chain cannot be renamed apart from its successor.
            if inst.op.has_tied_base() && inst.op.uses().contains(&r) {
                return false;
            }
            if inst.op.defs().contains(&r) {
                return true; // redefined before block end: chain is local
            }
        }
        !self.liveness.is_live_out(bid, r)
    }
}
