//! The process-wide region memo: content-addressed re-use of scheduled
//! regions.
//!
//! Scheduling one region is pure: the final block contents are a function
//! of the region subtree's pre-schedule content (instructions, intra- and
//! out-going control edges), the registers live into its exit successors
//! (the §5.3 guard's only view of the world outside the region), the
//! region-tree shape below it (which fixes the topological tie-breaks),
//! the machine description and the configuration. This module keys on
//! exactly those inputs — [`gis_ir::canon_region`] chained with the
//! [fingerprints](crate::fingerprint) — and caches the *outcome*: the
//! final instruction order and operations of the region's direct blocks,
//! how many fresh registers §5.3 renaming drew per class, and the
//! statistics delta. A hit replays the outcome onto the arena — relink,
//! reorder, renumber the recorded renames onto the current allocator —
//! instead of re-running list scheduling, and is bit-identical to the
//! cold run by construction (and by the differential gate, which
//! re-schedules on a snapshot and compares under debug builds or
//! [`SchedConfig::verify_each_pass`]).
//!
//! Why direct blocks suffice: §4.1 confines every motion to the region
//! being scheduled, and candidates only ever live in (and renames only
//! ever rewrite) the region's *direct* blocks — enclosed child regions
//! appear as frozen supernodes. The child blocks still shape the
//! analyses, which is why the key's canonical bytes cover the whole
//! subtree while the payload covers only what can change.
//!
//! Memoization self-disables for configurations it cannot prove
//! bit-identical: tracing observers (a hit emits no events), branch
//! profiles (keyed per instruction id), duplication (mints instruction
//! ids; splicing would need the parallel merge's full renumbering
//! machinery), the reference hot paths, and the fault-injection switches.
//! It also skips any region with an exit successor inside a
//! *non-ancestor* region: such a block's live-ins can change when its own
//! region is scheduled earlier in the same pass, so the pass-level
//! liveness the key is built from could go stale. Ancestors are always
//! scheduled after their descendants ([`RegionTree::schedule_order`] is
//! innermost-first) and regions never mutate other regions' blocks, so
//! ancestor-resident exits are stable.
//!
//! The memo is a process-wide bounded LRU (same stamp idiom as
//! `gis-serve`'s schedule cache) so warm hits carry across functions,
//! passes, requests and — in the daemon — client connections: editing
//! one function of a batch re-schedules only the regions whose bytes
//! changed. Counters are exported via [`region_memo_counters`] and
//! surface as `cache.region.{hit,miss,splice}` in the daemon's stats.

use crate::config::{SchedConfig, SchedLevel};
use crate::fingerprint::{write_config_fingerprint, write_machine_fingerprint};
use crate::global::{
    exit_blocks, exits_are_stable, region_within_size_limits, schedule_region_in_pass,
    subtree_blocks,
};
use crate::stats::SchedStats;
use gis_cfg::{Cfg, RegionId, RegionKind, RegionTree};
use gis_ir::hash::Fnv64;
use gis_ir::{BlockId, Function, InstId, Op, Reg, RegClass};
use gis_machine::MachineDescription;
use gis_pdg::Liveness;
use gis_trace::{NopObserver, SchedObserver};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of scheduled regions the memo retains.
const DEFAULT_CAPACITY: usize = 4096;

/// One memoized scheduling outcome.
struct MemoEntry {
    /// Final content of the region's direct blocks: instruction ids in
    /// their scheduled order with their (possibly renamed) operations.
    blocks: Vec<(BlockId, Vec<(InstId, Op)>)>,
    /// Register counters when the recorded run started; operations
    /// referencing registers at or above this base are §5.3 renames.
    reg_base: [u32; 3],
    /// Fresh registers the recorded run drew, per class.
    draws: [u32; 3],
    /// The recorded run's statistics delta.
    stats: SchedStats,
}

struct Slot {
    value: Arc<MemoEntry>,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Slot>,
    /// stamp → key, for O(log n) least-recently-used eviction.
    by_stamp: BTreeMap<u64, u64>,
    clock: u64,
}

struct RegionMemo {
    inner: Mutex<Inner>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    splices: AtomicU64,
}

impl RegionMemo {
    fn get(&self, key: u64) -> Option<Arc<MemoEntry>> {
        if self.capacity.load(Ordering::Relaxed) == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock().expect("region memo lock");
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.get_mut(&key) {
            Some(slot) => {
                let old = std::mem::replace(&mut slot.stamp, stamp);
                let value = Arc::clone(&slot.value);
                inner.by_stamp.remove(&old);
                inner.by_stamp.insert(stamp, key);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: u64, value: Arc<MemoEntry>) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("region memo lock");
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.by_stamp.remove(&old.stamp);
        } else if inner.map.len() >= capacity {
            if let Some((&oldest_stamp, &oldest_key)) = inner.by_stamp.iter().next() {
                inner.by_stamp.remove(&oldest_stamp);
                inner.map.remove(&oldest_key);
            }
        }
        inner.map.insert(key, Slot { value, stamp });
        inner.by_stamp.insert(stamp, key);
    }
}

fn memo() -> &'static RegionMemo {
    static MEMO: OnceLock<RegionMemo> = OnceLock::new();
    MEMO.get_or_init(|| RegionMemo {
        inner: Mutex::new(Inner::default()),
        capacity: AtomicUsize::new(DEFAULT_CAPACITY),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        splices: AtomicU64::new(0),
    })
}

/// A snapshot of the region memo's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionMemoCounters {
    /// Eligible lookups that found a memoized outcome.
    pub hits: u64,
    /// Eligible lookups that did not (the region was then scheduled and
    /// recorded).
    pub misses: u64,
    /// Block payloads spliced from memoized outcomes.
    pub splices: u64,
    /// Memoized regions currently held.
    pub entries: u64,
    /// Retention bound (0 disables the memo).
    pub capacity: u64,
}

/// Reads the process-wide region memo counters. These surface in the
/// daemon's stats and metrics as `cache.region.{hit,miss,splice}` —
/// kept out of [`SchedStats`] deliberately, since statistics must stay
/// bit-identical whether a region was scheduled or spliced.
pub fn region_memo_counters() -> RegionMemoCounters {
    let m = memo();
    RegionMemoCounters {
        hits: m.hits.load(Ordering::Relaxed),
        misses: m.misses.load(Ordering::Relaxed),
        splices: m.splices.load(Ordering::Relaxed),
        entries: m.inner.lock().expect("region memo lock").map.len() as u64,
        capacity: m.capacity.load(Ordering::Relaxed) as u64,
    }
}

/// Empties the region memo and zeroes its counters. The benchmark
/// harness calls this before cold runs; nothing else should need to.
pub fn region_memo_clear() {
    let m = memo();
    let mut inner = m.inner.lock().expect("region memo lock");
    inner.map.clear();
    inner.by_stamp.clear();
    m.hits.store(0, Ordering::Relaxed);
    m.misses.store(0, Ordering::Relaxed);
    m.splices.store(0, Ordering::Relaxed);
}

/// Bounds the region memo to `capacity` scheduled regions (least
/// recently used beyond that are evicted; 0 disables memoization
/// entirely). The default is 4096.
pub fn region_memo_set_capacity(capacity: usize) {
    let m = memo();
    m.capacity.store(capacity, Ordering::Relaxed);
    if capacity == 0 {
        return;
    }
    let mut inner = m.inner.lock().expect("region memo lock");
    while inner.map.len() > capacity {
        let Some((&oldest_stamp, &oldest_key)) = inner.by_stamp.iter().next() else {
            break;
        };
        inner.by_stamp.remove(&oldest_stamp);
        inner.map.remove(&oldest_key);
    }
}

/// Whether this configuration can use the memo at all (see the module
/// docs for why each exclusion exists).
pub(crate) fn memo_eligible(config: &SchedConfig, tracing: bool) -> bool {
    config.region_memo
        && !tracing
        && config.level != SchedLevel::BasicBlockOnly
        && config.profile.is_none()
        && !config.duplication
        && !config.reference_hot_paths
        && !config.inject_skip_live_on_exit
        && !config.inject_skip_dup_pred_check
}

/// Chains the region-tree shape below `rid` into the hasher: per region
/// a kind tag, the header block, the direct block ids and the children
/// (recursively, in child order — the order fixes the supernode
/// numbering and with it the topological tie-breaks).
fn write_tree_shape(h: &mut Fnv64, tree: &RegionTree, rid: RegionId) {
    let region = tree.region(rid);
    h.write_u8(match region.kind {
        RegionKind::Loop(_) => 1,
        RegionKind::Body => 0,
    });
    h.write_u32(region.header.map_or(u32::MAX, |b| b.index() as u32));
    h.write_u32(region.blocks.len() as u32);
    for &b in &region.blocks {
        h.write_u32(b.index() as u32);
    }
    h.write_u32(region.children.len() as u32);
    for &c in &region.children {
        write_tree_shape(h, tree, c);
    }
}

/// The memo key: every input that determines the scheduling outcome.
#[allow(clippy::too_many_arguments)]
fn memo_key(
    f: &Function,
    machine: &MachineDescription,
    tree: &RegionTree,
    rid: RegionId,
    config: &SchedConfig,
    scope: &[BlockId],
    exits: &[BlockId],
    live: &Liveness,
) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"region-memo/v1\0");
    h.write(&gis_ir::canon_region(f, scope));
    write_tree_shape(&mut h, tree, rid);
    h.write_u32(exits.len() as u32);
    for &b in exits {
        h.write_u32(b.index() as u32);
        for r in live.live_in(b).iter() {
            h.write_u8(r.class().slot() as u8);
            h.write_u32(r.index());
        }
        h.write_u8(0xff);
    }
    write_machine_fingerprint(&mut h, machine);
    write_config_fingerprint(&mut h, config, f.inst_id_bound());
    h.finish()
}

/// [`schedule_region_in_pass`] with memoization: an eligible region
/// whose key was seen before is spliced from the memo; a miss schedules
/// it and records the outcome. `pass_live` is the enclosing global
/// pass's liveness, computed once on the pre-pass function: the memo
/// keys read it, and so do the region-local liveness solves. `None`
/// bypasses the memo entirely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_region_memoized<O: SchedObserver>(
    f: &mut Function,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    rid: RegionId,
    config: &SchedConfig,
    stats: &mut SchedStats,
    obs: &mut O,
    pass_live: Option<&Liveness>,
) -> bool {
    let run = |f: &mut Function, stats: &mut SchedStats, obs: &mut O| {
        schedule_region_in_pass(f, machine, cfg, tree, rid, config, stats, obs, pass_live)
    };
    let Some(live) = pass_live else {
        return run(f, stats, obs);
    };
    if !memo_eligible(config, obs.enabled()) {
        return run(f, stats, obs);
    }
    // Regions the scheduler will skip for size never pay for a key (and
    // are never memoized — a skip is cheaper to re-detect than to look
    // up). Irreducible regions do pay for one wasted key and miss.
    if !region_within_size_limits(f, tree, rid, config) {
        return run(f, stats, obs);
    }
    let scope = subtree_blocks(tree, rid);
    let exits = exit_blocks(f, &scope);
    if !exits_are_stable(tree, rid, &exits) {
        return run(f, stats, obs);
    }
    let key = memo_key(f, machine, tree, rid, config, &scope, &exits, live);

    if let Some(entry) = memo().get(key) {
        // Differential gate: under debug builds or the verify-each-pass
        // switch, re-schedule on a snapshot and require the splice to
        // reproduce it exactly.
        let gate =
            (cfg!(debug_assertions) || config.verify_each_pass.is_some()).then(|| f.snapshot());
        splice(f, &entry);
        stats.absorb(entry.stats);
        if let Some(before) = gate {
            verify_splice(&before, f, &entry, machine, cfg, tree, rid, config, live);
        }
        return true;
    }

    let reg_base = f.reg_counters();
    let inst_base = f.inst_id_bound();
    let mut local = SchedStats::default();
    let ok = run(f, &mut local, obs);
    stats.absorb(local);
    if ok && f.inst_id_bound() == inst_base {
        let reg_now = f.reg_counters();
        let draws = [
            reg_now[0] - reg_base[0],
            reg_now[1] - reg_base[1],
            reg_now[2] - reg_base[2],
        ];
        let blocks = tree
            .region(rid)
            .blocks
            .iter()
            .map(|&b| {
                let insts = f.block(b).insts().map(|i| (i.id, i.op.clone())).collect();
                (b, insts)
            })
            .collect();
        memo().insert(
            key,
            Arc::new(MemoEntry {
                blocks,
                reg_base,
                draws,
                stats: local,
            }),
        );
    }
    ok
}

/// Replays a memoized outcome onto `f`: draws the same fresh registers
/// the recorded run drew, moves every instruction to its recorded block,
/// restores the recorded order, and rewrites the operations §5.3
/// renaming touched (renumbered from the recorded allocator base to the
/// current one). Pure index-list manipulation except for the rename
/// rewrites, so copy-on-write snapshots stay cheap on rename-free
/// regions.
fn splice(f: &mut Function, entry: &MemoEntry) {
    let cur_base = f.reg_counters();
    for class in RegClass::ALL {
        for _ in 0..entry.draws[class.slot()] {
            f.fresh_reg(class);
        }
    }
    let mut cur_block: HashMap<InstId, BlockId> = HashMap::new();
    for &(b, _) in &entry.blocks {
        for inst in f.block(b).insts() {
            cur_block.insert(inst.id, b);
        }
    }
    for (b, insts) in &entry.blocks {
        for &(id, _) in insts {
            let from = *cur_block
                .get(&id)
                .expect("memoized region holds the same instruction set");
            if from != *b {
                let at = f.block(*b).len();
                f.relink_inst(id, from, *b, at);
                cur_block.insert(id, *b);
            }
        }
    }
    let renamed = entry.draws != [0, 0, 0];
    let remap = |r: Reg| {
        let s = r.class().slot();
        if r.index() >= entry.reg_base[s] && r.index() < entry.reg_base[s] + entry.draws[s] {
            Reg::new(r.class(), cur_base[s] + (r.index() - entry.reg_base[s]))
        } else {
            r
        }
    };
    for (b, insts) in &entry.blocks {
        let order: Vec<InstId> = insts.iter().map(|&(id, _)| id).collect();
        f.block_mut(*b).set_order(&order);
        if renamed {
            for (pos, (_, op)) in insts.iter().enumerate() {
                let mut op = op.clone();
                op.map_defs(&remap);
                op.map_uses(&remap);
                if f.block(*b).inst_at(pos).op != op {
                    f.block_mut(*b).inst_mut(pos).op = op;
                }
            }
        }
        memo().splices.fetch_add(1, Ordering::Relaxed);
    }
}

/// The differential gate: schedules the region for real on the pre-hit
/// snapshot — through the same pass-start liveness as the recorded run,
/// so the liveness counters line up — and panics unless the splice
/// reproduced it bit for bit.
#[allow(clippy::too_many_arguments)]
fn verify_splice(
    before: &Function,
    spliced: &Function,
    entry: &MemoEntry,
    machine: &MachineDescription,
    cfg: &Cfg,
    tree: &RegionTree,
    rid: RegionId,
    config: &SchedConfig,
    pass_live: &Liveness,
) {
    let mut real = before.snapshot();
    let mut st = SchedStats::default();
    let ok = schedule_region_in_pass(
        &mut real,
        machine,
        cfg,
        tree,
        rid,
        config,
        &mut st,
        &mut NopObserver,
        Some(pass_live),
    );
    assert!(ok, "region memo: hit on a region the scheduler skips");
    assert_eq!(
        st, entry.stats,
        "region memo: statistics diverged from the recorded run"
    );
    assert_eq!(
        real.reg_counters(),
        spliced.reg_counters(),
        "region memo: allocator state diverged"
    );
    for &(b, _) in &entry.blocks {
        let got: Vec<(InstId, Op)> = spliced
            .block(b)
            .insts()
            .map(|i| (i.id, i.op.clone()))
            .collect();
        let want: Vec<(InstId, Op)> = real
            .block(b)
            .insts()
            .map(|i| (i.id, i.op.clone()))
            .collect();
        assert_eq!(
            got,
            want,
            "region memo: spliced block {} diverged from the scheduled one",
            spliced.block(b).label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use gis_machine::MachineDescription;

    // The memo is process-wide and the test harness runs tests
    // concurrently, so counter assertions below are monotonic deltas,
    // never exact values — and tests that depend on the capacity (or on
    // hits actually happening) serialize on this lock so the
    // capacity-zero test cannot interleave with them.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Strips the wall-clock pass timings, which are the one
    /// nondeterministic field of [`SchedStats`].
    fn counted(mut st: SchedStats) -> SchedStats {
        st.pass_nanos = [0; 6];
        st
    }

    const TWO_LOOPS: &str = "func two\n\
        init:\n LI r1=0\n LI r2=0\n LI r9=5\n\
        l1:\n AI r1=r1,1\n C cr0=r1,r9\n BT l1,cr0,0x1/lt\n\
        l2:\n AI r2=r2,2\n C cr1=r2,r9\n BT l2,cr1,0x1/lt\n\
        out:\n PRINT r1\n PRINT r2\n RET\n";

    /// The core contract: a warm compile is bit-identical to the cold
    /// one and to a memo-off compile — text, statistics and allocator
    /// state. (Debug builds also run the differential gate on every
    /// hit, so this test exercises the full splice-vs-schedule compare.)
    #[test]
    fn warm_compile_is_bit_identical() {
        let _guard = serialize();
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::speculative();
        let mut off = config.clone();
        off.region_memo = false;
        let f0 = gis_ir::parse_function(TWO_LOOPS).expect("parses");
        let before = region_memo_counters();
        let mut cold = f0.clone();
        let st_cold = compile(&mut cold, &machine, &config).expect("cold");
        let mut warm = f0.clone();
        let st_warm = compile(&mut warm, &machine, &config).expect("warm");
        let mut reference = f0;
        let st_ref = compile(&mut reference, &machine, &off).expect("memo off");
        assert_eq!(cold.to_string(), warm.to_string(), "warm text");
        assert_eq!(cold.to_string(), reference.to_string(), "memo-off text");
        assert_eq!(counted(st_cold), counted(st_warm), "warm stats");
        assert_eq!(counted(st_cold), counted(st_ref), "memo-off stats");
        assert_eq!(cold.reg_counters(), warm.reg_counters());
        let after = region_memo_counters();
        assert!(after.hits > before.hits, "the warm run hit the memo");
        assert!(after.splices > before.splices, "hits spliced payloads");
    }

    /// A splice must replay §5.3 renames, renumbered onto the current
    /// allocator: the Figure 2 function renames `cr6` during speculative
    /// scheduling (the paper's Figure 6 motion).
    #[test]
    fn warm_compile_replays_renames() {
        let _guard = serialize();
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::paper_example(SchedLevel::Speculative);
        let f0 = gis_workloads::minmax::figure2_function(99);
        let mut cold = f0.clone();
        let st_cold = compile(&mut cold, &machine, &config).expect("cold");
        assert_eq!(st_cold.renamed_speculative, 1, "the rename fires");
        let mut warm = f0.clone();
        let st_warm = compile(&mut warm, &machine, &config).expect("warm");
        assert_eq!(cold.to_string(), warm.to_string());
        assert_eq!(counted(st_cold), counted(st_warm));
        assert_eq!(cold.reg_counters(), warm.reg_counters());
    }

    /// Every configuration the memo cannot prove bit-identical must
    /// bypass it (the module docs list why each exclusion exists).
    #[test]
    fn ineligible_configs_bypass_the_memo() {
        let tracing_off = false;
        let mut config = SchedConfig::speculative();
        assert!(memo_eligible(&config, tracing_off));
        assert!(!memo_eligible(&config, true), "tracing bypasses");
        config.region_memo = false;
        assert!(!memo_eligible(&config, tracing_off), "switch bypasses");
        config.region_memo = true;
        config.duplication = true;
        assert!(!memo_eligible(&config, tracing_off), "duplication bypasses");
        config.duplication = false;
        config.profile = Some(crate::BranchProfile::default());
        assert!(!memo_eligible(&config, tracing_off), "profiles bypass");
        config.profile = None;
        config.reference_hot_paths = true;
        assert!(
            !memo_eligible(&config, tracing_off),
            "reference paths bypass"
        );
        config.reference_hot_paths = false;
        config.level = SchedLevel::BasicBlockOnly;
        assert!(!memo_eligible(&config, tracing_off), "bb-only bypasses");
    }

    /// Capacity 0 disables the memo; restoring it re-enables.
    #[test]
    fn capacity_zero_disables() {
        let _guard = serialize();
        let machine = MachineDescription::rs6k();
        let config = SchedConfig::speculative();
        let f0 = gis_ir::parse_function(TWO_LOOPS).expect("parses");
        region_memo_set_capacity(0);
        let before = region_memo_counters();
        assert_eq!(before.capacity, 0);
        let mut a = f0.clone();
        compile(&mut a, &machine, &config).expect("compiles");
        let mut b = f0;
        compile(&mut b, &machine, &config).expect("compiles");
        assert_eq!(a.to_string(), b.to_string());
        region_memo_set_capacity(DEFAULT_CAPACITY);
        assert_eq!(region_memo_counters().capacity, DEFAULT_CAPACITY as u64);
    }
}
