//! Du-chain webs and register renaming.
//!
//! §4.2: "to minimize the number of anti and output data dependences ...
//! the XL compiler does certain renaming of registers, which is similar to
//! the effect of the static single assignment form". This module
//! implements the classic web-based version of that renaming: definitions
//! that reach a common use are unioned into a *web*, and each web gets its
//! own fresh symbolic register. Distinct webs that happened to share a
//! register (like the two `cr6` webs of Figure 2, `I5`/`I6` vs
//! `I12`/`I13`) stop conflicting, which is what lets Figure 6 schedule
//! `I12` speculatively into BL1 (the paper shows it renamed to `cr5`).
//!
//! Constraints honoured:
//!
//! * update-form instructions (`LU`/`STU`) tie their base register's def
//!   to its use — both stay in one web;
//! * registers live on entry to the function (inputs set up by code
//!   outside the scope) anchor their webs to the original register, and
//!   such webs are not renamed.
//!
//! # Linear web renaming
//!
//! [`rename_webs`] takes the SSA route the paper's remark suggests. Every
//! value is a node of one union-find: each definition site, one *entry
//! def* per mentioned register (the value it holds before the function),
//! and one *join node* per block per register live into that block — a
//! pruned φ. A single walk over the blocks tracks the current node of
//! every register in version-stamped arrays, so each use records the node
//! it reads, and each block records the node each live-out register holds
//! on exit. Each CFG edge then unions the predecessor's live-out node with
//! the successor's join node for the same register (a merge of two sorted
//! lists), and the entry block's join nodes are unioned with the entry
//! defs. Cost: O(instructions + Σ live-in × predecessors), no hashing.
//!
//! The webs equal those of a reaching-definitions solve. The definitions
//! reaching a join node are exactly the sites with a path of edges into
//! it. Liveness guarantees every join node flows on to some use, and that
//! use's reaching set contains the join node's. So each edge connects two
//! nodes whose reaching sets lie in one web, and every use is connected to
//! all of its reaching definitions. The one exception is a join node that
//! no definition reaches, which happens only in code unreachable from the
//! entry. There a reaching-definitions solve has an empty set and falls
//! back to the register's entry def, so such join nodes are found by a
//! forward pass first, stand for their entry def, and pass nothing on.
//!
//! [`rename_webs_reference`] keeps the original reaching-definitions
//! fixed point as the differential oracle.

use crate::Liveness;
use gis_cfg::{Cfg, NodeId};
use gis_ir::{BlockId, Function, Reg, RegClass};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Statistics from a [`rename_webs`] (or [`rename_webs_reference`]) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenameStats {
    /// Webs discovered (including unrenamed input webs).
    pub webs: usize,
    /// Webs renamed to fresh registers.
    pub renamed: usize,
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, mut x: usize) -> usize {
        // Path halving: iterative, so long chains cannot overflow the stack.
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// A definition site: either a real instruction position or the virtual
/// "defined before the function" site for a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Site {
    Inst { block: BlockId, pos: usize },
    EntryDef,
}

/// Renames register webs to fresh symbolic registers, in place.
///
/// Returns how many webs were found and renamed. The function is left
/// verified-equivalent: every use still sees exactly the definitions it
/// saw before (a property the test suite checks by differential
/// simulation at the workspace level). One linear walk (see the module
/// docs); the output, fresh register numbering included, is bit-identical
/// to [`rename_webs_reference`].
pub fn rename_webs(f: &mut Function, cfg: &Cfg) -> RenameStats {
    const NONE: u32 = u32::MAX;
    let live = Liveness::compute(f, cfg);
    let n = f.num_blocks();

    // --- 1. Flatten operands; number registers densely. ---------------
    // `regs` holds each instruction's uses then defs, in layout order.
    // Dense register numbers are class offset plus index: `Reg`'s order.
    let mut regs: Vec<Reg> = Vec::new();
    let mut insts: Vec<Operands> = Vec::with_capacity(f.num_insts());
    let mut block_start: Vec<usize> = Vec::with_capacity(n + 1);
    for (_, block) in f.blocks() {
        block_start.push(insts.len());
        for inst in block.insts() {
            let start = regs.len();
            inst.op.uses_into(&mut regs);
            let mid = regs.len();
            inst.op.defs_into(&mut regs);
            insts.push(Operands {
                uses: start..mid,
                defs: mid..regs.len(),
                tied: inst.op.has_tied_base(),
            });
        }
    }
    block_start.push(insts.len());
    // A hand-built function may mention registers past its counters.
    let mut bound = f.reg_counters().map(|c| c as usize);
    for r in &regs {
        let b = &mut bound[r.class().slot()];
        *b = (*b).max(r.index() as usize + 1);
    }
    let offset = [0, bound[0], bound[0] + bound[1]];
    let dense = |r: Reg| offset[r.class().slot()] + r.index() as usize;
    let dregs: Vec<u32> = regs.iter().map(|&r| dense(r) as u32).collect();

    // --- 2. Number the nodes. ------------------------------------------
    // Def sites first (layout order, one per def operand), then one entry
    // def per mentioned register in register order, then join nodes.
    let mut site_reg: Vec<Reg> = Vec::new();
    for o in &insts {
        site_reg.extend_from_slice(&regs[o.defs.clone()]);
    }
    let num_defs = site_reg.len();
    // `entry[r]` is `NONE` until `r` is seen mentioned.
    let mut entry = vec![NONE; bound.iter().sum()];
    for &r in &dregs {
        entry[r as usize] = 0;
    }
    for (slot, class) in RegClass::ALL.into_iter().enumerate() {
        for i in 0..bound[slot] {
            let e = &mut entry[offset[slot] + i];
            if *e != NONE {
                *e = site_reg.len() as u32;
                site_reg.push(Reg::new(class, i as u32));
            }
        }
    }
    let join_base = site_reg.len();
    let mut join_start: Vec<usize> = Vec::with_capacity(n + 1);
    let mut join_reg: Vec<u32> = Vec::new();
    for b in 0..n {
        join_start.push(join_reg.len());
        let live_in = live.live_in(BlockId::new(b as u32));
        join_reg.extend(live_in.iter().map(|r| dense(r) as u32));
    }
    join_start.push(join_reg.len());

    // --- 3. One walk: the node each operand reads or writes. -----------
    // `node[k]` is the value a use operand reads, or the site a def
    // operand writes. A register defined twice by one instruction is
    // written by its last def, as the reference's `(block, pos, reg)`
    // keys have it: that site is the one later uses, the tie and the
    // rewrite see (the earlier one stays a singleton web).
    let mut node = vec![0u32; regs.len()];
    let mut cur = vec![0u32; entry.len()];
    let mut stamp = vec![0u32; entry.len()];
    let mut ties: Vec<(u32, u32)> = Vec::new();
    let mut out_start: Vec<usize> = Vec::with_capacity(n + 1);
    let mut outs: Vec<(u32, u32)> = Vec::new();
    let mut next_site = 0u32;
    for b in 0..n {
        let ver = b as u32 + 1;
        let joins = join_start[b]..join_start[b + 1];
        for (j, &r) in joins.clone().zip(&join_reg[joins]) {
            cur[r as usize] = (join_base + j) as u32;
            stamp[r as usize] = ver;
        }
        for o in &insts[block_start[b]..block_start[b + 1]] {
            for k in o.uses.clone() {
                let r = dregs[k] as usize;
                // A read before any write makes `r` live-in, so this only
                // guards against stale state: fall back to the entry def.
                if stamp[r] != ver {
                    cur[r] = entry[r];
                    stamp[r] = ver;
                }
                node[k] = cur[r];
            }
            for k in o.defs.clone() {
                let r = dregs[k] as usize;
                cur[r] = next_site;
                stamp[r] = ver;
                next_site += 1;
            }
            for k in o.defs.clone() {
                node[k] = cur[dregs[k] as usize];
            }
            if o.tied {
                for k in o.uses.clone() {
                    if let Some(d) = o.defs.clone().find(|&d| dregs[d] == dregs[k]) {
                        ties.push((node[k], node[d]));
                    }
                }
            }
        }
        out_start.push(outs.len());
        for r in live.live_out(BlockId::new(b as u32)).iter() {
            let r = dense(r);
            if stamp[r] == ver {
                outs.push((r as u32, cur[r]));
            }
        }
    }
    out_start.push(outs.len());

    // --- 4. Value edges into join nodes. -------------------------------
    // Both lists are sorted by register, so each CFG edge is a merge.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for j in join_start[0]..join_start[1] {
        edges.push((entry[join_reg[j] as usize], (join_base + j) as u32));
    }
    for b in 0..n {
        let joins = join_start[b]..join_start[b + 1];
        for e in cfg.preds(NodeId::block(BlockId::new(b as u32))) {
            let Some(p) = e.to.as_block() else { continue };
            let mut out = outs[out_start[p.index()]..out_start[p.index() + 1]]
                .iter()
                .peekable();
            for j in joins.clone() {
                let r = join_reg[j];
                while out.next_if(|&&(o, _)| o < r).is_some() {}
                if let Some(&&(_, value)) = out.peek().filter(|&&&(o, _)| o == r) {
                    edges.push((value, (join_base + j) as u32));
                }
            }
        }
    }

    // --- 5. Which join nodes some definition reaches. ------------------
    let num_joins = join_reg.len();
    let mut reached = vec![false; num_joins];
    let mut first_out = vec![NONE; num_joins];
    let mut next_out = vec![NONE; edges.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (e, &(from, to)) in edges.iter().enumerate() {
        let to = to as usize - join_base;
        match (from as usize).checked_sub(join_base) {
            Some(j) => {
                next_out[e] = first_out[j];
                first_out[j] = e as u32;
            }
            None if !reached[to] => {
                reached[to] = true;
                stack.push(to);
            }
            None => {}
        }
    }
    while let Some(j) = stack.pop() {
        let mut e = first_out[j];
        while e != NONE {
            let to = edges[e as usize].1 as usize - join_base;
            if !reached[to] {
                reached[to] = true;
                stack.push(to);
            }
            e = next_out[e as usize];
        }
    }
    // An unreached join node reads as its register's entry def.
    let value = |x: u32| match (x as usize).checked_sub(join_base) {
        Some(j) if !reached[j] => entry[join_reg[j] as usize],
        _ => x,
    };

    // --- 6. Union along reached edges and ties. ------------------------
    let mut uf = UnionFind::new(join_base + num_joins);
    for &(from, to) in &edges {
        if value(from) == from {
            uf.union(from as usize, to as usize);
        }
    }
    for &(used, def) in &ties {
        uf.union(value(used) as usize, def as usize);
    }

    // --- 7. Pick a register per web, minting in site order. ------------
    let mut web_reg: Vec<Option<Reg>> = vec![None; join_base + num_joins];
    for e in num_defs..join_base {
        web_reg[uf.find(e)] = Some(site_reg[e]);
    }
    let mut stats = RenameStats::default();
    let mut seen = vec![false; join_base + num_joins];
    for (s, &r) in site_reg.iter().enumerate() {
        let root = uf.find(s);
        if !std::mem::replace(&mut seen[root], true) {
            stats.webs += 1;
        }
        if web_reg[root].is_none() {
            web_reg[root] = Some(f.fresh_reg(r.class()));
            stats.renamed += 1;
        }
    }

    // --- 8. Rewrite from the recorded nodes. ---------------------------
    let new: Vec<Reg> = node
        .iter()
        .map(|&x| web_reg[uf.find(value(x) as usize)].expect("every web has a register"))
        .collect();
    // Keyed by the original register like the reference's maps; for an
    // update form `map_defs` sees the base `map_uses` already rewrote.
    let lookup = |mut ks: Range<usize>, r: Reg| ks.find(|&k| regs[k] == r).map_or(r, |k| new[k]);
    for b in 0..n {
        let mut ops = insts[block_start[b]..block_start[b + 1]].iter();
        f.map_block_insts(BlockId::new(b as u32), |inst| {
            let o = ops.next().expect("one operand record per instruction");
            inst.op.map_uses(|r| lookup(o.uses.clone(), r));
            inst.op.map_defs(|r| lookup(o.defs.clone(), r));
        });
    }

    stats
}

/// One instruction's operands in [`rename_webs`]'s flat buffer.
struct Operands {
    uses: Range<usize>,
    defs: Range<usize>,
    tied: bool,
}

/// The original reaching-definitions renaming, kept verbatim as the
/// differential oracle for [`rename_webs`]: same inputs, same output
/// (checked by the `gis-check` test suite and timed against it by the
/// hotpaths bench). It iterates `HashMap` reaching-definition sets to a
/// fixed point, which grows super-linearly with the function — do not
/// call it from the scheduler.
pub fn rename_webs_reference(f: &mut Function, cfg: &Cfg) -> RenameStats {
    // --- 1. Enumerate definition sites per register. ------------------
    // site ids: for each (block, pos, reg-def) one id; plus one entry-def
    // id per register (allocated lazily below, but we pre-allocate for
    // simplicity: regs is small).
    let regs: Vec<Reg> = f.all_regs();
    let reg_ix: HashMap<Reg, usize> = regs
        .iter()
        .copied()
        .enumerate()
        .map(|(i, r)| (r, i))
        .collect();

    let mut sites: Vec<(Site, Reg)> = Vec::new();
    let mut site_of: HashMap<(BlockId, usize, Reg), usize> = HashMap::new();
    for (bid, block) in f.blocks() {
        for (pos, inst) in block.insts().enumerate() {
            for d in inst.op.defs() {
                let id = sites.len();
                sites.push((Site::Inst { block: bid, pos }, d));
                site_of.insert((bid, pos, d), id);
            }
        }
    }
    let entry_site_base = sites.len();
    for &r in &regs {
        sites.push((Site::EntryDef, r));
    }
    let entry_site = |r: Reg| entry_site_base + reg_ix[&r];

    // --- 2. Reaching definitions at block boundaries. -----------------
    // in/out: per block, per register, set of site ids — restricted to
    // registers *live* across the boundary. Most registers (expression
    // temporaries) die inside their block: a use either follows an
    // in-block def (resolved by the block walks below, no boundary data
    // needed) or its register is live-in by the very definition of
    // liveness, so restricting to live registers loses nothing while
    // shrinking the propagated maps from O(all registers) to O(live
    // locals) — the difference between quadratic and near-linear
    // renaming on large functions.
    let live = Liveness::compute(f, cfg);
    type RD = Vec<HashMap<Reg, HashSet<usize>>>;
    let n = f.num_blocks();
    let mut rd_in: RD = vec![HashMap::new(); n];
    let mut rd_out: RD = vec![HashMap::new(); n];

    // Entry block starts with the virtual entry defs (of live-in
    // registers: an entry def that ever reaches a use is live-in along
    // the whole def-free path from the entry, so nothing else is ever
    // looked up).
    let entry = BlockId::new(0);
    let mut entry_env: HashMap<Reg, HashSet<usize>> = HashMap::new();
    for &r in &regs {
        if live.live_in(entry).contains(r) {
            entry_env.insert(r, HashSet::from([entry_site(r)]));
        }
    }

    // Per block transfer: last def per register, else pass-through;
    // registers dead on exit are dropped.
    let transfer = |f: &Function, bid: BlockId, inn: &HashMap<Reg, HashSet<usize>>| {
        let mut env = inn.clone();
        for (pos, inst) in f.block(bid).insts().enumerate() {
            for d in inst.op.defs() {
                env.insert(d, HashSet::from([site_of[&(bid, pos, d)]]));
            }
        }
        let out_live = live.live_out(bid);
        env.retain(|&r, _| out_live.contains(r));
        env
    };

    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let bid = BlockId::new(i as u32);
            let mut inn: HashMap<Reg, HashSet<usize>> = if i == 0 {
                entry_env.clone()
            } else {
                HashMap::new()
            };
            for e in cfg.preds(NodeId::block(bid)) {
                if let Some(p) = e.to.as_block() {
                    for (r, ss) in &rd_out[p.index()] {
                        if live.live_in(bid).contains(*r) {
                            inn.entry(*r).or_default().extend(ss.iter().copied());
                        }
                    }
                }
            }
            let out = transfer(f, bid, &inn);
            if inn != rd_in[i] || out != rd_out[i] {
                rd_in[i] = inn;
                rd_out[i] = out;
                changed = true;
            }
        }
    }

    // --- 3. Union defs that share a use (and tied def/use pairs). -----
    let mut uf = UnionFind::new(sites.len());
    for (bid, block) in f.blocks() {
        let mut env = rd_in[bid.index()].clone();
        for (pos, inst) in block.insts().enumerate() {
            for u in inst.op.uses() {
                let reaching = env
                    .entry(u)
                    .or_insert_with(|| HashSet::from([entry_site(u)]));
                let mut iter = reaching.iter().copied();
                let first = iter.next().expect("nonempty");
                for s in iter {
                    uf.union(first, s);
                }
                // Tied base: the def this instruction makes of `u` joins
                // the web of the value it consumed.
                if inst.op.has_tied_base() && inst.op.defs().contains(&u) {
                    uf.union(first, site_of[&(bid, pos, u)]);
                }
            }
            for d in inst.op.defs() {
                env.insert(d, HashSet::from([site_of[&(bid, pos, d)]]));
            }
        }
    }

    // --- 4. Pick a register per web. -----------------------------------
    // Webs containing an entry def keep their original register.
    let mut web_reg: HashMap<usize, Reg> = HashMap::new();
    for &r in &regs {
        let root = uf.find(entry_site(r));
        web_reg.insert(root, r);
    }
    let mut stats = RenameStats::default();
    let mut roots_seen: HashSet<usize> = HashSet::new();
    for (id, site) in sites.iter().enumerate() {
        let root = uf.find(id);
        if roots_seen.insert(root) {
            stats.webs += 1;
        }
        if let std::collections::hash_map::Entry::Vacant(e) = web_reg.entry(root) {
            let fresh = f.fresh_reg(site.1.class());
            e.insert(fresh);
            stats.renamed += 1;
        }
    }

    // --- 5. Rewrite instructions. --------------------------------------
    // For each instruction: defs map via their own site's web; uses map
    // via the web of (any of) their reaching defs — all in one web by
    // construction.
    let block_ids: Vec<BlockId> = f.block_ids().collect();
    for bid in block_ids {
        let mut env = rd_in[bid.index()].clone();
        for pos in 0..f.block(bid).len() {
            let op = &f.block(bid).inst_at(pos).op;
            let uses = op.uses();
            let defs = op.defs();
            let mut use_map: HashMap<Reg, Reg> = HashMap::new();
            for u in &uses {
                let site = env
                    .get(u)
                    .and_then(|s| s.iter().next().copied())
                    .unwrap_or_else(|| entry_site(*u));
                use_map.insert(*u, web_reg[&uf.find(site)]);
            }
            let mut def_map: HashMap<Reg, Reg> = HashMap::new();
            for d in &defs {
                let site = site_of[&(bid, pos, *d)];
                def_map.insert(*d, web_reg[&uf.find(site)]);
            }
            let mut bm = f.block_mut(bid);
            let op = &mut bm.inst_mut(pos).op;
            op.map_uses(|r| use_map.get(&r).copied().unwrap_or(r));
            op.map_defs(|r| def_map.get(&r).copied().unwrap_or(r));
            for d in defs {
                env.insert(d, HashSet::from([site_of[&(bid, pos, d)]]));
            }
        }
    }

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, Op};

    fn renamed(text: &str) -> (Function, RenameStats) {
        let mut f = parse_function(text).expect("parses");
        f.verify().expect("input verifies");
        let cfg = Cfg::new(&f);
        let mut reference = f.clone();
        let ref_stats = rename_webs_reference(&mut reference, &cfg);
        let stats = rename_webs(&mut f, &cfg);
        f.verify().expect("still verifies");
        assert_eq!(stats, ref_stats, "stats match the reference");
        assert_eq!(
            gis_ir::canon::to_canonical_bytes(&f),
            gis_ir::canon::to_canonical_bytes(&reference),
            "output matches the reference:\n{f}\n{reference}"
        );
        (f, stats)
    }

    fn use_of(f: &Function, id: u32, k: usize) -> Reg {
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).expect("exists");
        f.block(bid).inst_at(pos).op.uses()[k]
    }

    fn def_of(f: &Function, id: u32) -> Reg {
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).expect("exists");
        f.block(bid).inst_at(pos).op.defs()[0]
    }

    #[test]
    fn disjoint_webs_get_distinct_registers() {
        // Two independent uses of r1.
        let (f, stats) = renamed(
            "func w\nA:\n\
             (I0) LI r1=1\n\
             (I1) PRINT r1\n\
             (I2) LI r1=2\n\
             (I3) PRINT r1\n\
             RET\n",
        );
        assert_eq!(stats.renamed, 2);
        let d0 = def_of(&f, 0);
        let d2 = def_of(&f, 2);
        assert_ne!(d0, d2, "separate webs renamed apart");
        // Uses follow their defs.
        let use_at = |id: u32| {
            let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).unwrap();
            f.block(bid).inst_at(pos).op.uses()[0]
        };
        assert_eq!(use_at(1), d0);
        assert_eq!(use_at(3), d2);
    }

    #[test]
    fn diamond_defs_sharing_a_use_stay_together() {
        // §5.3 shape: both defs of r3 reach the print; one web.
        let (f, _) = renamed(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n (I10) LI r3=5\n B D\n\
             C:\n (I12) LI r3=3\n\
             D:\n (I13) PRINT r3\n RET\n",
        );
        let d10 = def_of(&f, 10);
        let d12 = def_of(&f, 12);
        assert_eq!(d10, d12, "defs joining at a use share a web");
    }

    #[test]
    fn figure2_cr6_webs_split() {
        // The two cr6 webs (I5/I6 and I12/I13) of the paper get distinct
        // condition registers, enabling Figure 6's speculative motion.
        let f = gis_workloads::minmax::figure2_function(9);
        let mut f2 = f.clone();
        let cfg = Cfg::new(&f2);
        let stats = rename_webs(&mut f2, &cfg);
        assert!(stats.renamed > 0);
        let cr_of = |f: &Function, id: u32| def_of(f, id);
        assert_eq!(cr_of(&f, 5), cr_of(&f, 12), "same register before");
        assert_ne!(cr_of(&f2, 5), cr_of(&f2, 12), "distinct webs after");
        // The branch using each compare follows its own web.
        let branch_use = |f: &Function, id: u32| {
            let (bid, pos) = f.find_inst(gis_ir::InstId::new(id)).unwrap();
            match &f.block(bid).inst_at(pos).op {
                Op::BranchCond { cr, .. } => *cr,
                other => panic!("expected branch, got {other:?}"),
            }
        };
        assert_eq!(branch_use(&f2, 6), cr_of(&f2, 5));
        assert_eq!(branch_use(&f2, 13), cr_of(&f2, 12));
    }

    #[test]
    fn function_inputs_keep_their_register() {
        // r9 is live on entry (no def): its web must not be renamed.
        let (f, _) = renamed("func i\nA:\n (I0) AI r1=r9,1\n PRINT r1\n RET\n");
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(0)).unwrap();
        assert_eq!(f.block(bid).inst_at(pos).op.uses()[0], Reg::gpr(9));
    }

    #[test]
    fn loop_carried_web_stays_whole() {
        // r1 := 0; loop { r1 := r1 + 1 } — the def in the loop reaches its
        // own use around the back edge; with the init def they form one web.
        let (f, _) = renamed(
            "func l\n\
             A:\n (I0) LI r1=0\n\
             B:\n (I1) AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\n\
             C:\n PRINT r1\n RET\n",
        );
        let d0 = def_of(&f, 0);
        let d1 = def_of(&f, 1);
        assert_eq!(d0, d1, "init and loop increment share the web");
    }

    #[test]
    fn tied_base_webs_union() {
        // LU defines r2 as a function of old r2: one web spanning both,
        // even though the pointer init would otherwise be a separate def.
        let (f, _) = renamed(
            "func t\nA:\n\
             (I0) LI r2=4096\n\
             (I1) LU r1,r2=a(r2,8)\n\
             (I2) L  r3=a(r2,4)\n\
             PRINT r3\n RET\n",
        );
        let d0 = def_of(&f, 0);
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(1)).unwrap();
        let lu_defs = f.block(bid).inst_at(pos).op.defs();
        assert_eq!(lu_defs[1], d0, "base def tied into the base web");
        let (bid2, pos2) = f.find_inst(gis_ir::InstId::new(2)).unwrap();
        assert_eq!(f.block(bid2).inst_at(pos2).op.uses()[0], d0);
    }

    #[test]
    fn unreachable_read_before_def_falls_back_to_the_entry_def() {
        // B is unreachable and reads r1 before defining it: no definition
        // reaches that read, so it keeps the original register.
        let (f, _) = renamed(
            "func u\n\
             A:\n (I0) LI r1=1\n (I1) PRINT r1\n RET\n\
             B:\n (I3) PRINT r1\n (I4) LI r1=2\n (I5) PRINT r1\n RET\n",
        );
        assert_eq!(use_of(&f, 3, 0), Reg::gpr(1));
        assert_ne!(def_of(&f, 0), def_of(&f, 4), "the reachable webs split");
        assert_eq!(use_of(&f, 5, 0), def_of(&f, 4));
    }

    #[test]
    fn unreachable_loop_without_reaching_defs() {
        // The loop L is unreachable; r9 circulates around its back edge
        // without any definition, while r1's own increment reaches the
        // header through the back edge.
        let (f, _) = renamed(
            "func u\n\
             A:\n (I0) LI r1=1\n (I1) PRINT r1\n RET\n\
             L:\n (I3) AI r1=r1,1\n (I4) C cr0=r1,r9\n BT L,cr0,0x1/lt\n\
             M:\n (I6) PRINT r9\n RET\n",
        );
        assert_eq!(use_of(&f, 4, 1), Reg::gpr(9));
        assert_eq!(use_of(&f, 6, 0), Reg::gpr(9));
        assert_eq!(use_of(&f, 3, 0), def_of(&f, 3), "r1 loops to itself");
    }

    #[test]
    fn unreachable_entry_free_chain_feeding_a_defined_join() {
        // X is unreachable with no defs; it flows into H, which L's def
        // also reaches. H's read sees only L's def, X's read only the
        // entry def — the two must not merge through H.
        renamed(
            "func u\n\
             A:\n LI r1=0\n PRINT r1\n RET\n\
             X:\n PRINT r1\n\
             H:\n PRINT r1\n\
             L:\n LI r1=5\n B H\n",
        );
    }

    #[test]
    fn double_def_in_one_instruction_uses_the_last() {
        // `LU r2,r2=...` defines r2 twice: the last def is the one the
        // tie, later uses and the rewrite see; the first is a singleton
        // web of its own.
        let (f, stats) = renamed(
            "func d\nA:\n\
             (I0) LI r2=4096\n\
             (I1) LU r2,r2=a(r2,8)\n\
             (I2) PRINT r2\n\
             (I3) CALL g(r2)->(r3,r3)\n\
             (I4) PRINT r3\n RET\n",
        );
        assert!(stats.renamed >= 3);
        assert_eq!(use_of(&f, 2, 0), def_of(&f, 0), "tied into the init web");
        let (bid, pos) = f.find_inst(gis_ir::InstId::new(3)).unwrap();
        let call_defs = f.block(bid).inst_at(pos).op.defs();
        assert_eq!(call_defs[0], call_defs[1]);
        assert_eq!(use_of(&f, 4, 0), call_defs[1]);
    }

    #[test]
    fn store_update_with_the_base_as_value() {
        renamed("func s\nA:\n LI r2=4096\n STU r2=>a(r2,8)\n PRINT r2\n RET\n");
    }

    #[test]
    fn entry_block_loop_header() {
        // The entry block is its own loop header: its join nodes meet the
        // entry defs and the back edge's values.
        let (f, _) = renamed(
            "func e\n\
             A:\n (I0) AI r1=r1,1\n (I1) C cr0=r1,r9\n BT A,cr0,0x1/lt\n\
             B:\n (I3) PRINT r1\n (I4) LI r1=0\n (I5) PRINT r1\n RET\n",
        );
        assert_eq!(def_of(&f, 0), Reg::gpr(1), "the loop web holds the input");
        assert_eq!(use_of(&f, 3, 0), Reg::gpr(1));
        assert_ne!(def_of(&f, 4), Reg::gpr(1));
    }
}
