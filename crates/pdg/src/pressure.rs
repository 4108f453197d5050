//! Register pressure measurement.
//!
//! The paper schedules over unbounded *symbolic* registers before register
//! allocation (§2) and cites Bradlee–Eggers–Henry on the interplay between
//! the two phases: global motion — speculation especially — lengthens
//! live ranges and raises the demand the allocator must later meet. This
//! module measures that demand: the maximum number of simultaneously live
//! registers of each class, at instruction granularity.

use crate::liveness::Liveness;
use gis_cfg::Cfg;
use gis_ir::{Function, RegClass, RegSet};
use std::fmt;

/// Peak simultaneous liveness per register class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PressureReport {
    /// Peak live general purpose registers.
    pub gpr: usize,
    /// Peak live floating point registers.
    pub fpr: usize,
    /// Peak live condition register fields.
    pub cr: usize,
}

impl PressureReport {
    fn absorb(&mut self, live: &RegSet) {
        let count = |c: RegClass| live.iter().filter(|r| r.class() == c).count();
        self.gpr = self.gpr.max(count(RegClass::Gpr));
        self.fpr = self.fpr.max(count(RegClass::Fpr));
        self.cr = self.cr.max(count(RegClass::Cr));
    }
}

impl fmt::Display for PressureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gpr / {} fpr / {} cr live at peak",
            self.gpr, self.fpr, self.cr
        )
    }
}

/// Computes peak register pressure for `f` (with `cfg` built from it):
/// a backward per-instruction walk from each block's live-out set.
pub fn register_pressure(f: &Function, cfg: &Cfg) -> PressureReport {
    let liveness = Liveness::compute(f, cfg);
    let mut report = PressureReport::default();
    for (bid, block) in f.blocks() {
        let mut live = liveness.live_out(bid).into_owned();
        report.absorb(&live);
        for inst in block.insts().rev() {
            for d in inst.op.defs() {
                live.remove(d);
            }
            for u in inst.op.uses() {
                live.insert(u);
            }
            report.absorb(&live);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    fn pressure(text: &str) -> PressureReport {
        let f = parse_function(text).expect("parses");
        let cfg = Cfg::new(&f);
        register_pressure(&f, &cfg)
    }

    #[test]
    fn straight_line_peak() {
        // r1 and r2 overlap; r3 replaces both.
        let p = pressure("func t\nE:\n LI r1=1\n LI r2=2\n A r3=r1,r2\n PRINT r3\n RET\n");
        assert_eq!(p.gpr, 2);
        assert_eq!(p.cr, 0);
        assert_eq!(p.fpr, 0);
    }

    #[test]
    fn loop_carried_values_count_throughout() {
        let p = pressure(
            "func l\nA:\n LI r1=0\n LI r9=9\nB:\n AI r1=r1,1\n C cr0=r1,r9\n BT B,cr0,0x1/lt\nC:\n PRINT r1\n RET\n",
        );
        // r1 and r9 live around the loop; cr0 live between compare and
        // branch.
        assert_eq!(p.gpr, 2);
        assert_eq!(p.cr, 1);
    }

    #[test]
    fn classes_are_tracked_separately() {
        let p = pressure(
            "func c\nE:\n FA f1=f2,f3\n FA f4=f1,f1\n C cr0=r1,r2\n C cr1=r1,r2\n BT E,cr0,0x1/lt\nX:\n BT E,cr1,0x2/gt\nY:\n RET\n",
        );
        assert!(p.fpr >= 2, "f1 overlaps its inputs: {p}");
        assert_eq!(
            p.cr, 2,
            "both condition fields live across the first branch"
        );
    }

    #[test]
    fn hoisting_raises_pressure() {
        // The same computation, sunk vs hoisted: hoisting the two LIs
        // above the branch keeps both live across it.
        let sunk = pressure(
            "func s\nA:\n C cr0=r8,r9\n BT X,cr0,0x1/lt\nB:\n LI r1=1\n PRINT r1\n\
             LI r2=2\n PRINT r2\nX:\n RET\n",
        );
        let hoisted = pressure(
            "func h\nA:\n LI r1=1\n LI r2=2\n C cr0=r8,r9\n BT X,cr0,0x1/lt\nB:\n PRINT r1\n\
             PRINT r2\nX:\n RET\n",
        );
        assert!(hoisted.gpr > sunk.gpr, "{hoisted} vs {sunk}");
    }
}
