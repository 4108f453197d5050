//! Block-level register liveness.
//!
//! Speculative scheduling (§5.3) must know which symbolic registers are
//! *live on exit* from a block: an instruction may not be moved
//! speculatively into block `A` if it writes a register live on exit from
//! `A`. Liveness is defined over the full CFG (back edges included, so
//! loop-carried uses keep registers alive) and kept current by the
//! scheduler after each motion — the paper's "this type of information
//! has to be updated dynamically" — via [`Liveness::update_after_motion`],
//! which re-summarizes only the two touched blocks and re-solves the
//! fixed point over the affected region instead of the whole function.
//!
//! Two ways to build the sets:
//!
//! * [`Liveness::compute`] solves the whole function. The global
//!   scheduler runs it once per pass, on the pass-start function, to get
//!   the *boundary* facts below; it is also the fallback and the oracle.
//! * [`Liveness::for_region`] covers one region only: it summarizes the
//!   region's blocks, seeds the live-in of every out-of-region successor
//!   from a boundary [`Liveness`], and solves over the region alone. The
//!   result on the region's blocks equals a whole-function solve whenever
//!   those boundary live-ins are current — every path out of the region
//!   passes through one of them — so its cost follows the region, not
//!   the function. The scheduler uses it when every exit successor lies
//!   in an ancestor region, whose blocks nothing mutates before the
//!   region's turn.
//!
//! A region solve's sets and tables are sized by the region on both
//! axes. The tables have one *row* per region block plus one per
//! boundary block, and the sets number registers densely: every
//! register the region mentions, or carries live across its boundary,
//! gets the next index of its class. A set then spans the region's
//! registers, not every register the function ever allocated — which is
//! what keeps the per-motion repair cheap in large functions. The only
//! state that scales with the function is two `u32` maps, block → row
//! and register → dense index. The accessors translate back to the
//! function's own numbering.

use gis_cfg::{Cfg, NodeId};
use gis_ir::{BlockId, BlockRef, Function, Reg, RegSet};
use std::borrow::Cow;

/// Row-map entry for blocks the sets do not cover.
const NO_ROW: u32 = u32::MAX;

/// Live-in / live-out register sets per basic block, with the per-block
/// `use`/`def` summaries retained so the sets can be repaired
/// incrementally after a code motion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// Block index → row of the tables below ([`NO_ROW`] when not
    /// covered). The identity for a whole-function solve.
    row: Vec<u32>,
    /// The register numbering of the sets below: `None` for the
    /// function's own (whole-function solves), dense per region
    /// otherwise.
    regs: Option<RegIndex>,
    /// Per row: registers read before any write in the block.
    uses: Vec<RegSet>,
    /// Per row: registers written anywhere in the block.
    defs: Vec<RegSet>,
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

/// A region solve's dense register numbering: per class, registers are
/// numbered in order of first appearance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RegIndex {
    /// Per class slot: function register index → dense index
    /// ([`NOT_NUMBERED`] when not seen yet), grown on demand to the
    /// highest index seen — a `u32` per register like the row map, and
    /// a plain load on the repair's hot path.
    dense: [Vec<u32>; 3],
    /// Per class slot: dense index → the function register's index.
    function: [Vec<u32>; 3],
}

/// [`RegIndex::dense`] entry for registers not numbered yet.
const NOT_NUMBERED: u32 = u32::MAX;

impl RegIndex {
    /// The dense register for `r`, numbering it on first sight.
    fn intern(&mut self, r: Reg) -> Reg {
        let (slot, i) = (r.class().slot(), r.index() as usize);
        let dense = &mut self.dense[slot];
        if i >= dense.len() {
            dense.resize(i + 1, NOT_NUMBERED);
        }
        if dense[i] == NOT_NUMBERED {
            dense[i] = self.function[slot].len() as u32;
            self.function[slot].push(r.index());
        }
        Reg::new(r.class(), dense[i])
    }

    /// The dense register for `r`, if it was numbered.
    fn get(&self, r: Reg) -> Option<Reg> {
        match self.dense[r.class().slot()].get(r.index() as usize) {
            Some(&d) if d != NOT_NUMBERED => Some(Reg::new(r.class(), d)),
            _ => None,
        }
    }

    /// `set` renumbered back into the function's registers.
    fn to_function(&self, set: &RegSet) -> RegSet {
        set.iter()
            .map(|r| {
                Reg::new(
                    r.class(),
                    self.function[r.class().slot()][r.index() as usize],
                )
            })
            .collect()
    }
}

/// Adds `block`'s upward-exposed uses and its defs to the summaries,
/// numbering registers through `regs` when the solve has its own
/// numbering.
fn summarize(
    block: BlockRef<'_>,
    mut regs: Option<&mut RegIndex>,
    uses: &mut RegSet,
    defs: &mut RegSet,
) {
    let mut number = |r: Reg| match regs.as_deref_mut() {
        Some(index) => index.intern(r),
        None => r,
    };
    for inst in block.insts() {
        for u in inst.op.uses() {
            let u = number(u);
            if !defs.contains(u) {
                uses.insert(u);
            }
        }
        for d in inst.op.defs() {
            defs.insert(number(d));
        }
    }
}

impl Liveness {
    /// Computes liveness for `f` (with `cfg` built from the same function).
    ///
    /// ```
    /// use gis_cfg::Cfg;
    /// use gis_pdg::Liveness;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = gis_ir::parse_function(
    ///     "func t\nA:\n LI r1=1\nB:\n PRINT r1\n RET\n",
    /// )?;
    /// let live = Liveness::compute(&f, &Cfg::new(&f));
    /// assert!(live.live_out(gis_ir::BlockId::new(0)).contains(gis_ir::Reg::gpr(1)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(f: &Function, cfg: &Cfg) -> Self {
        let n = f.num_blocks();
        let mut uses: Vec<RegSet> = vec![RegSet::new(); n];
        let mut defs: Vec<RegSet> = vec![RegSet::new(); n];
        for (bid, block) in f.blocks() {
            let i = bid.index();
            summarize(block, None, &mut uses[i], &mut defs[i]);
        }
        let live_in: Vec<RegSet> = uses.clone();
        let mut live = Liveness {
            row: (0..n as u32).collect(),
            regs: None,
            uses,
            defs,
            live_in,
            live_out: vec![RegSet::new(); n],
        };
        let all: Vec<BlockId> = (0..n).map(|i| BlockId::new(i as u32)).collect();
        live.solve(cfg, &all);
        live
    }

    /// Computes liveness for the blocks of `scope` only (ascending block
    /// ids), reading the live-in of every successor outside `scope` from
    /// `boundary` — typically a [`compute`](Self::compute) of the same
    /// function taken earlier, whose facts at those successors are still
    /// current.
    ///
    /// On every scope block the result equals a whole-function
    /// [`compute`](Self::compute) whenever the boundary live-ins are
    /// current: a register is live at a scope block exactly when some
    /// path reaches a use without a redefinition, and any such path
    /// either stays inside the scope or leaves it through a boundary
    /// block, where the seed already accounts for the rest of the path.
    /// [`live_in`](Self::live_in) and [`live_out`](Self::live_out) answer
    /// for scope blocks only (boundary blocks report their seeds as
    /// live-in). [`update_after_motion`](Self::update_after_motion) works
    /// unchanged on the result.
    ///
    /// ```
    /// use gis_cfg::Cfg;
    /// use gis_ir::BlockId;
    /// use gis_pdg::Liveness;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = gis_ir::parse_function(
    ///     "func t\nA:\n LI r1=1\nB:\n AI r2=r1,1\nC:\n PRINT r2\n RET\n",
    /// )?;
    /// let cfg = Cfg::new(&f);
    /// let full = Liveness::compute(&f, &cfg);
    /// let b = BlockId::new(1);
    /// let local = Liveness::for_region(&f, &cfg, &[b], &full);
    /// assert_eq!(local.live_in(b), full.live_in(b));
    /// assert_eq!(local.live_out(b), full.live_out(b));
    /// # Ok(())
    /// # }
    /// ```
    pub fn for_region(f: &Function, cfg: &Cfg, scope: &[BlockId], boundary: &Liveness) -> Self {
        let n = scope.len();
        let mut row = vec![NO_ROW; f.num_blocks()];
        let mut regs = RegIndex::default();
        let mut uses: Vec<RegSet> = vec![RegSet::new(); n];
        let mut defs: Vec<RegSet> = vec![RegSet::new(); n];
        for (i, &b) in scope.iter().enumerate() {
            row[b.index()] = i as u32;
            summarize(f.block(b), Some(&mut regs), &mut uses[i], &mut defs[i]);
        }
        let mut live_in = uses.clone();
        // One extra row per boundary block, seeded with its live-in;
        // the solve reads it and never writes it.
        for &b in scope {
            for e in cfg.succs(NodeId::block(b)) {
                if let Some(s) = e.to.as_block() {
                    if row[s.index()] == NO_ROW {
                        row[s.index()] = live_in.len() as u32;
                        let seed = boundary.live_in(s).iter().map(|r| regs.intern(r)).collect();
                        live_in.push(seed);
                        uses.push(RegSet::new());
                        defs.push(RegSet::new());
                    }
                }
            }
        }
        let rows = live_in.len();
        let mut live = Liveness {
            row,
            regs: Some(regs),
            uses,
            defs,
            live_in,
            live_out: vec![RegSet::new(); rows],
        };
        live.solve(cfg, scope);
        live
    }

    /// Repairs the live sets after one instruction moved from block
    /// `from` into block `to`, where both blocks lie inside the region
    /// whose blocks are `scope` (ascending block-id order, as produced
    /// by the scheduler's subtree enumeration). `self` must cover every
    /// scope block and its successors: a whole-function
    /// [`compute`](Self::compute), or a [`for_region`](Self::for_region)
    /// over the same scope.
    ///
    /// Only `from` and `to` changed code, so only their `use`/`def`
    /// summaries are re-derived. The live sets of every scope block are
    /// then re-seeded and the backward fixed point re-solved over
    /// `scope` alone, reading the (unchanged) `live_in` of
    /// out-of-scope successors as boundary values. Legal motions never
    /// change liveness at the region boundary — a moved use was
    /// already live through the target block, and §5.3 plus the
    /// dependence edges keep moved defs from being live-in at the
    /// region head — so the result matches a full
    /// [`compute`](Self::compute); the scheduler asserts exactly that
    /// under debug builds and its verification gate.
    pub fn update_after_motion(
        &mut self,
        f: &Function,
        cfg: &Cfg,
        scope: &[BlockId],
        to: BlockId,
        from: BlockId,
    ) {
        for b in [to, from] {
            let i = self.row_of(b);
            self.uses[i].clear();
            self.defs[i].clear();
            let (uses, defs) = (&mut self.uses[i], &mut self.defs[i]);
            // Split the double borrow by hand: `uses` and `defs` come
            // from different fields. Registers the motion introduced (a
            // §5.3 rename) are numbered here on first sight.
            summarize(f.block(b), self.regs.as_mut(), uses, defs);
        }
        // Re-seed from the bottom. Solving from the stale sets would
        // only ever grow them, and a use that moved *out* of a loop
        // block can legitimately shrink liveness around the back edge.
        for &b in scope {
            let i = self.row_of(b);
            self.live_out[i].clear();
            self.live_in[i].clear();
            self.live_in[i].union_with(&self.uses[i]);
        }
        self.solve(cfg, scope);
    }

    /// Runs the backward fixed point over `blocks` (ascending id
    /// order), leaving every other row untouched and reading them as
    /// boundary values. Sets only grow, so the in-place unions converge
    /// to the least fixed point for the given seeds.
    fn solve(&mut self, cfg: &Cfg, blocks: &[BlockId]) {
        let row = &self.row;
        let mut changed = true;
        while changed {
            changed = false;
            for &bid in blocks.iter().rev() {
                let i = row[bid.index()] as usize;
                for e in cfg.succs(NodeId::block(bid)) {
                    if let Some(s) = e.to.as_block() {
                        let (out, inn) = (&mut self.live_out, &self.live_in);
                        changed |= out[i].union_with(&inn[row[s.index()] as usize]);
                    }
                }
                let (inn, out) = (&mut self.live_in, &self.live_out);
                changed |= inn[i].union_with_except(&out[i], &self.defs[i]);
            }
        }
    }

    fn row_of(&self, b: BlockId) -> usize {
        match self.row.get(b.index()) {
            Some(&r) if r != NO_ROW => r as usize,
            _ => panic!("liveness does not cover block {b}"),
        }
    }

    /// Registers live on entry to `b`. Borrowed for a whole-function
    /// solve; a region solve renumbers its dense set into a new one.
    pub fn live_in(&self, b: BlockId) -> Cow<'_, RegSet> {
        self.in_function_numbering(&self.live_in[self.row_of(b)])
    }

    /// Registers live on exit from `b` (§5.3's gate for speculation).
    /// Borrowed for a whole-function solve; a region solve renumbers its
    /// dense set into a new one.
    pub fn live_out(&self, b: BlockId) -> Cow<'_, RegSet> {
        self.in_function_numbering(&self.live_out[self.row_of(b)])
    }

    /// Whether `r` is live on entry to `b` — [`live_in`](Self::live_in)
    /// without building a set.
    pub fn is_live_in(&self, b: BlockId, r: Reg) -> bool {
        self.holds(&self.live_in[self.row_of(b)], r)
    }

    /// Whether `r` is live on exit from `b` —
    /// [`live_out`](Self::live_out) without building a set.
    pub fn is_live_out(&self, b: BlockId, r: Reg) -> bool {
        self.holds(&self.live_out[self.row_of(b)], r)
    }

    fn in_function_numbering<'s>(&self, set: &'s RegSet) -> Cow<'s, RegSet> {
        match &self.regs {
            None => Cow::Borrowed(set),
            Some(index) => Cow::Owned(index.to_function(set)),
        }
    }

    /// Whether `set` holds the function register `r`. A register a
    /// region solve never numbered is neither mentioned by the region
    /// nor live at its boundary, so it is dead throughout the region.
    fn holds(&self, set: &RegSet, r: Reg) -> bool {
        match &self.regs {
            None => set.contains(r),
            Some(index) => index.get(r).is_some_and(|d| set.contains(d)),
        }
    }

    /// The first of `blocks` whose live-in or live-out set differs
    /// between `self` and `other`, or `None` when they agree on all of
    /// them. The scheduler's verification gate compares region-local
    /// sets against a whole-function solve with this.
    pub fn first_disagreement(&self, other: &Liveness, blocks: &[BlockId]) -> Option<BlockId> {
        blocks
            .iter()
            .copied()
            .find(|&b| self.live_in(b) != other.live_in(b) || self.live_out(b) != other.live_out(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::{parse_function, Reg};

    fn liveness(text: &str) -> (Function, Liveness) {
        let f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        let l = Liveness::compute(&f, &cfg);
        (f, l)
    }

    #[test]
    fn straight_line() {
        let (_, l) = liveness("func s\nA:\n LI r1=1\n AI r2=r1,1\nB:\n PRINT r2\n RET\n");
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        assert!(l.live_out(a).contains(Reg::gpr(2)));
        assert!(
            !l.live_out(a).contains(Reg::gpr(1)),
            "r1 is consumed inside A"
        );
        assert!(l.live_in(b).contains(Reg::gpr(2)));
        assert!(l.live_out(b).is_empty());
    }

    #[test]
    fn section_5_3_diamond() {
        // The x=5 / x=3 example: x (r3) is live on exit from the join's
        // predecessors but NOT defined before the branch.
        let (_, l) = liveness(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        );
        let a = BlockId::new(0);
        assert!(
            !l.live_out(a).contains(Reg::gpr(3)),
            "x is dead on exit from A before any motion"
        );
        assert!(l.live_out(BlockId::new(1)).contains(Reg::gpr(3)));
        assert!(l.live_out(BlockId::new(2)).contains(Reg::gpr(3)));
        // The branch condition is consumed by A itself.
        assert!(l.live_in(a).contains(Reg::gpr(1)));
        assert!(!l.live_out(a).contains(Reg::cr(0)));
    }

    #[test]
    fn loop_carried_liveness() {
        // r1 is incremented each iteration: live around the back edge.
        let (_, l) = liveness(
            "func l\nA:\n LI r1=0\nB:\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\nC:\n PRINT r1\n RET\n",
        );
        let b = BlockId::new(1);
        assert!(
            l.live_out(b).contains(Reg::gpr(1)),
            "live on the back edge and exit"
        );
        assert!(l.live_in(b).contains(Reg::gpr(1)));
        assert!(
            l.live_out(b).contains(Reg::gpr(9)),
            "n stays live around the loop"
        );
    }

    #[test]
    fn update_form_keeps_base_alive() {
        let (_, l) = liveness("func u\nA:\n LU r1,r2=a(r2,8)\nB:\n PRINT r2\n RET\n");
        let a = BlockId::new(0);
        assert!(l.live_in(a).contains(Reg::gpr(2)), "base is read");
        assert!(
            l.live_out(a).contains(Reg::gpr(2)),
            "updated base flows out"
        );
        assert!(!l.live_out(a).contains(Reg::gpr(1)), "loaded value unused");
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        // Hoist `LI r3=5` from B into A (a useful motion target shape)
        // and repair incrementally; the result must equal a fresh
        // whole-function computation.
        let mut f = parse_function(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let mut live = Liveness::compute(&f, &cfg);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let moved = f.block_mut(b).remove_at(0);
        let at = f.block(a).len() - 2; // before the compare/branch pair
        f.block_mut(a).insert(at, moved);
        let scope: Vec<BlockId> = (0..f.num_blocks())
            .map(|i| BlockId::new(i as u32))
            .collect();
        live.update_after_motion(&f, &cfg, &scope, a, b);
        assert_eq!(live, Liveness::compute(&f, &cfg));
        assert!(live.live_out(a).contains(Reg::gpr(3)));
    }

    #[test]
    fn motion_that_empties_its_source_block() {
        // B holds a single instruction; moving it into A leaves B empty
        // (a pure fall-through). The incremental repair must cope with
        // the empty summary and still match a full recompute.
        let mut f = parse_function("func e\nA:\n LI r1=1\nB:\n AI r2=r1,1\nC:\n PRINT r2\n RET\n")
            .expect("parses");
        let cfg = Cfg::new(&f);
        let mut live = Liveness::compute(&f, &cfg);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        let moved = f.block_mut(b).remove_at(0);
        f.block_mut(a).push(moved);
        assert_eq!(f.block(b).len(), 0, "source block is now empty");
        let scope: Vec<BlockId> = (0..f.num_blocks())
            .map(|i| BlockId::new(i as u32))
            .collect();
        live.update_after_motion(&f, &cfg, &scope, a, b);
        assert_eq!(live, Liveness::compute(&f, &cfg));
        assert!(live.live_out(a).contains(Reg::gpr(2)));
        assert!(
            live.live_in(b).contains(Reg::gpr(2)),
            "r2 flows through empty B"
        );
    }

    #[test]
    fn shrinking_update_around_a_back_edge() {
        // The only use of r5 moves from the self-looping block B up
        // into the preheader A; r5 must STOP being live around the
        // back edge. A repair that solved from the stale sets would
        // keep the self-sustaining live-in/live-out cycle alive.
        let mut f = parse_function(
            "func s\n\
             A:\n LI r1=0\n\
             B:\n PRINT r5\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\n\
             X:\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let mut live = Liveness::compute(&f, &cfg);
        let a = BlockId::new(0);
        let b = BlockId::new(1);
        assert!(
            live.live_out(b).contains(Reg::gpr(5)),
            "loop-carried before"
        );
        let moved = f.block_mut(b).remove_at(0);
        f.block_mut(a).push(moved);
        let scope = [a, b];
        live.update_after_motion(&f, &cfg, &scope, a, b);
        assert_eq!(live, Liveness::compute(&f, &cfg));
        assert!(
            !live.live_out(b).contains(Reg::gpr(5)),
            "r5's last use now precedes the loop"
        );
    }

    /// Asserts that a region solve agrees with a whole-function solve on
    /// every scope block.
    fn assert_region_agrees(f: &Function, cfg: &Cfg, scope: &[BlockId]) {
        let full = Liveness::compute(f, cfg);
        let local = Liveness::for_region(f, cfg, scope, &full);
        assert_eq!(
            local.first_disagreement(&full, scope),
            None,
            "region solve over {scope:?} diverged"
        );
    }

    /// An outer loop `O..L` around a self-looping inner block `I`: the
    /// inner loop exits into the outer latch (its parent region), the
    /// outer loop into the routine body.
    const NESTED: &str = "func n\n\
        E:\n LI r1=0\n LI r3=0\n LI r9=4\n\
        O:\n LI r2=0\n\
        I:\n AI r2=r2,1\n A r3=r3,r2\n C cr0=r2,r9\n BT I,cr0,0x1/lt\n\
        L:\n AI r1=r1,1\n C cr1=r1,r9\n BT O,cr1,0x1/lt\n\
        X:\n PRINT r1\n PRINT r3\n RET\n";

    #[test]
    fn region_solve_matches_full_on_nested_loops() {
        let f = parse_function(NESTED).expect("parses");
        let cfg = Cfg::new(&f);
        let inner = [BlockId::new(2)];
        let outer = [BlockId::new(1), BlockId::new(2), BlockId::new(3)];
        assert_region_agrees(&f, &cfg, &inner);
        assert_region_agrees(&f, &cfg, &outer);
        let full = Liveness::compute(&f, &cfg);
        let local = Liveness::for_region(&f, &cfg, &inner, &full);
        assert!(
            local.live_out(inner[0]).contains(Reg::gpr(9)),
            "the bound stays live around both loops"
        );
        assert!(local.live_out(inner[0]).contains(Reg::gpr(3)));
        // r1 is never mentioned by I but flows through it to L and X;
        // r5 appears nowhere. The point queries agree with the sets.
        assert!(local.is_live_out(inner[0], Reg::gpr(1)));
        assert!(local.is_live_in(inner[0], Reg::gpr(1)));
        assert!(!local.is_live_out(inner[0], Reg::gpr(5)));
        assert_eq!(local.live_out(inner[0]), full.live_out(inner[0]));
    }

    #[test]
    fn region_solve_matches_full_when_an_exit_skips_a_level() {
        // The inner loop `I` may also leave straight to `X`, a block of
        // the routine body two regions up; `X` and the outer latch `L`
        // are both boundary blocks of the inner solve.
        let f = parse_function(
            "func k\n\
             E:\n LI r1=0\n LI r9=4\n\
             O:\n LI r2=0\n\
             I:\n AI r2=r2,1\n C cr2=r2,r1\n BT X,cr2,0x1/gt\n\
             J:\n C cr0=r2,r9\n BT I,cr0,0x1/lt\n\
             L:\n AI r1=r1,1\n C cr1=r1,r9\n BT O,cr1,0x1/lt\n\
             X:\n PRINT r2\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        assert_region_agrees(&f, &cfg, &[BlockId::new(2), BlockId::new(3)]);
        assert_region_agrees(&f, &cfg, &[1, 2, 3, 4].map(BlockId::new));
    }

    #[test]
    fn region_solve_supports_incremental_repair() {
        // Hoist `LI r3=5` from B into A on a region solve over A..C; the
        // repaired sets must still match a fresh whole-function solve.
        let mut f = parse_function(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let scope = [0, 1, 2].map(BlockId::new);
        let mut live = Liveness::for_region(&f, &cfg, &scope, &Liveness::compute(&f, &cfg));
        let (a, b) = (scope[0], scope[1]);
        let moved = f.block_mut(b).remove_at(0);
        let at = f.block(a).len() - 2;
        f.block_mut(a).insert(at, moved);
        live.update_after_motion(&f, &cfg, &scope, a, b);
        assert_eq!(
            live.first_disagreement(&Liveness::compute(&f, &cfg), &scope),
            None
        );
        assert!(live.live_out(a).contains(Reg::gpr(3)));
    }

    #[test]
    fn region_solve_numbers_registers_a_motion_introduces() {
        // A §5.3-style rename: B's `r3` web becomes the fresh `r77`, a
        // register the region solve has never seen, and the definition
        // then moves into A. The repair must number it on the fly.
        let mut f = parse_function(
            "func d\n\
             A:\n C cr0=r1,r2\n BT C,cr0,0x1/lt\n\
             B:\n LI r3=5\n PRINT r3\n B D\n\
             C:\n LI r3=3\n\
             D:\n PRINT r3\n RET\n",
        )
        .expect("parses");
        let cfg = Cfg::new(&f);
        let scope = [0, 1, 2].map(BlockId::new);
        let mut live = Liveness::for_region(&f, &cfg, &scope, &Liveness::compute(&f, &cfg));
        let (a, b) = (scope[0], scope[1]);
        let (r3, r77) = (Reg::gpr(3), Reg::gpr(77));
        for pos in 0..2 {
            let mut block = f.block_mut(b);
            let op = &mut block.inst_mut(pos).op;
            op.map_defs(|r| if r == r3 { r77 } else { r });
            op.map_uses(|r| if r == r3 { r77 } else { r });
        }
        let moved = f.block_mut(b).remove_at(0);
        let at = f.block(a).len() - 2;
        f.block_mut(a).insert(at, moved);
        live.update_after_motion(&f, &cfg, &scope, a, b);
        assert_eq!(
            live.first_disagreement(&Liveness::compute(&f, &cfg), &scope),
            None
        );
        assert!(live.is_live_out(a, r77) && live.is_live_in(b, r77));
        assert!(!live.is_live_out(b, r77), "the renamed web ends in B");
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn region_solve_rejects_blocks_outside_its_rows() {
        let f = parse_function(NESTED).expect("parses");
        let cfg = Cfg::new(&f);
        let full = Liveness::compute(&f, &cfg);
        let local = Liveness::for_region(&f, &cfg, &[BlockId::new(2)], &full);
        let _ = local.live_out(BlockId::new(0));
    }
}
