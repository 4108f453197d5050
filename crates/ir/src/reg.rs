//! Symbolic registers.

use std::fmt;

/// The architectural class of a register.
///
/// The RS/6000 splits its register file into general purpose (fixed point)
/// registers, floating point registers and the eight 4-bit condition
/// register fields. Scheduling happens over *symbolic* registers, so each
/// class is unbounded here; register allocation (out of scope for this
/// reproduction, as in the paper) later maps them onto the real file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General purpose (fixed point) register, printed `rN`.
    Gpr,
    /// Floating point register, printed `fN`.
    Fpr,
    /// Condition register field, printed `crN`.
    Cr,
}

impl RegClass {
    /// Every class, in [`slot`](Self::slot) order.
    pub const ALL: [RegClass; 3] = [RegClass::Gpr, RegClass::Fpr, RegClass::Cr];

    /// The class's dense index (`0..3`, in [`ALL`](Self::ALL) order) —
    /// what per-class tables such as
    /// [`Function::reg_counters`](crate::Function::reg_counters) are
    /// indexed by. It doubles as the class tag of the canonical bytes,
    /// so the order is fixed.
    pub fn slot(self) -> usize {
        match self {
            RegClass::Gpr => 0,
            RegClass::Fpr => 1,
            RegClass::Cr => 2,
        }
    }

    /// One-letter-ish prefix used by [`Reg`]'s `Display`.
    pub fn prefix(self) -> &'static str {
        match self {
            RegClass::Gpr => "r",
            RegClass::Fpr => "f",
            RegClass::Cr => "cr",
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RegClass::Gpr => "gpr",
            RegClass::Fpr => "fpr",
            RegClass::Cr => "cr",
        };
        f.write_str(name)
    }
}

/// A symbolic register: a class plus an index within that class.
///
/// Registers are cheap value types; the scheduler manipulates them by the
/// thousands. `Display` prints the assembly spelling (`r12`, `f3`, `cr7`).
///
/// ```
/// use gis_ir::{Reg, RegClass};
///
/// let r = Reg::gpr(12);
/// assert_eq!(r.to_string(), "r12");
/// assert_eq!(r.class(), RegClass::Gpr);
/// assert_ne!(r, Reg::cr(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    class: RegClass,
    index: u32,
}

impl Reg {
    /// Creates a register of the given class and index.
    pub fn new(class: RegClass, index: u32) -> Self {
        Reg { class, index }
    }

    /// Creates a general purpose register `rN`.
    pub fn gpr(index: u32) -> Self {
        Reg::new(RegClass::Gpr, index)
    }

    /// Creates a floating point register `fN`.
    pub fn fpr(index: u32) -> Self {
        Reg::new(RegClass::Fpr, index)
    }

    /// Creates a condition register field `crN`.
    pub fn cr(index: u32) -> Self {
        Reg::new(RegClass::Cr, index)
    }

    /// The register's class.
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The register's index within its class.
    pub fn index(self) -> u32 {
        self.index
    }

    /// Whether this is a condition register field.
    pub fn is_cr(self) -> bool {
        self.class == RegClass::Cr
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn slots_follow_all() {
        for (i, class) in RegClass::ALL.into_iter().enumerate() {
            assert_eq!(class.slot(), i, "{class}");
        }
    }

    #[test]
    fn display_spellings() {
        assert_eq!(Reg::gpr(0).to_string(), "r0");
        assert_eq!(Reg::fpr(31).to_string(), "f31");
        assert_eq!(Reg::cr(7).to_string(), "cr7");
    }

    #[test]
    fn classes_are_distinct_keys() {
        let mut set = HashSet::new();
        set.insert(Reg::gpr(1));
        set.insert(Reg::fpr(1));
        set.insert(Reg::cr(1));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn ordering_groups_by_class_then_index() {
        let mut v = vec![Reg::cr(0), Reg::gpr(2), Reg::gpr(1), Reg::fpr(9)];
        v.sort();
        assert_eq!(v, vec![Reg::gpr(1), Reg::gpr(2), Reg::fpr(9), Reg::cr(0)]);
    }
}
