//! Instruction vocabulary: LLVM-like primitive operations, the special
//! operations backed by PICACHU's dedicated functional units, and the fused
//! opcodes of Table 4.

use std::fmt;

/// A DFG node operation.
///
/// The primitive set mirrors the LLVM IR instructions the paper's DFGs are
/// built from; `Fp2Fx`, `Pow2i` and `LutRead` are the special operations of
/// §4.2.1; the `Fused*` opcodes are the Table 4 patterns collapsed into a
/// single-cycle node by DFG tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    // --- primitives (LLVM IR) ---
    /// SSA φ-node: loop-carried value selection.
    Phi,
    /// Addition (int or FP depending on kernel format).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Pipelined division (executed by the CoT divider, not vectorized).
    Div,
    /// Comparison producing a predicate.
    Cmp,
    /// Predicated selection (`select` after partial predication).
    Select,
    /// Loop back-branch (becomes a predicate chain under partial predication).
    Br,
    /// Memory read through a Shared Buffer port.
    Load,
    /// Memory write through a Shared Buffer port.
    Store,
    /// Arithmetic/logical shift (used by the integer kernels).
    Shift,
    /// Immediate/constant materialization.
    Const,
    /// Loop-invariant parameter read (a register holding a per-channel
    /// runtime value such as the softmax max or the normalization 1/σ).
    Param,
    // --- special functional units (§4.2.1) ---
    /// FP2FX split: FP value → integer + fraction components.
    Fp2Fx,
    /// Exponent construction `2^i` (companion of FP2FX in the exp kernel).
    Pow2i,
    /// Lookup-table read (e.g. `Φ(·)` for GeLU).
    LutRead,
    // --- fused operations (Table 4) ---
    /// `phi+add+add` — induction variable + address computation in one cycle.
    FusedPhiAddAdd,
    /// `phi+add` — accumulator update.
    FusedPhiAdd,
    /// `add+add` — address/offset chain.
    FusedAddAdd,
    /// `cmp+select` — max/min in one cycle.
    FusedCmpSelect,
    /// `mul+add+add` — polynomial-term chain.
    FusedMulAddAdd,
    /// `mul+add` — Horner step (fused multiply-add).
    FusedMulAdd,
    /// `cmp+br` — loop-exit test in one cycle.
    FusedCmpBr,
}

impl Opcode {
    /// `true` for nodes that access the Shared Buffer.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// `true` for control-flow nodes (converted to dataflow by partial
    /// predication but still constrained to branch-capable tiles).
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Br | Opcode::FusedCmpBr)
    }

    /// `true` for computation nodes (everything except memory accesses;
    /// this is the numerator of the §3.1 computational-intensity metric).
    pub fn is_compute(self) -> bool {
        !self.is_memory()
    }

    /// `true` for the Table 4 fused opcodes.
    pub fn is_fused(self) -> bool {
        self.fused_width() > 1
    }

    /// Number of primitive operations a node represents (1 for primitives).
    pub fn fused_width(self) -> usize {
        match self {
            Opcode::FusedPhiAddAdd | Opcode::FusedMulAddAdd => 3,
            Opcode::FusedPhiAdd
            | Opcode::FusedAddAdd
            | Opcode::FusedCmpSelect
            | Opcode::FusedMulAdd
            | Opcode::FusedCmpBr => 2,
            _ => 1,
        }
    }

    /// `true` if the opcode needs a special functional unit (CoT only).
    pub fn needs_special_unit(self) -> bool {
        matches!(self, Opcode::Fp2Fx | Opcode::Pow2i | Opcode::LutRead | Opcode::Div)
    }

    /// `true` if the opcode can be replicated across the four 16-bit lanes
    /// in INT16 mode (§5.3.3: `phi` and division are not vectorizable —
    /// division is split into multiple nodes instead).
    pub fn is_vectorizable(self) -> bool {
        !matches!(
            self,
            Opcode::Phi
                | Opcode::Div
                | Opcode::Br
                | Opcode::FusedPhiAdd
                | Opcode::FusedPhiAddAdd
                | Opcode::FusedCmpBr
        )
    }

    /// Execution latency in cycles. Fused nodes still take a single cycle
    /// (that is the point of the specialized FUs); division is pipelined with
    /// multi-cycle latency but single-cycle initiation.
    pub fn latency(self) -> u32 {
        match self {
            Opcode::Div => 4,
            _ => 1,
        }
    }

    /// Short mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Phi => "phi",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Cmp => "cmp",
            Opcode::Select => "select",
            Opcode::Br => "br",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Shift => "shift",
            Opcode::Const => "const",
            Opcode::Param => "param",
            Opcode::Fp2Fx => "fp2fx",
            Opcode::Pow2i => "pow2i",
            Opcode::LutRead => "lut",
            Opcode::FusedPhiAddAdd => "phi+add+add",
            Opcode::FusedPhiAdd => "phi+add",
            Opcode::FusedAddAdd => "add+add",
            Opcode::FusedCmpSelect => "cmp+select",
            Opcode::FusedMulAddAdd => "mul+add+add",
            Opcode::FusedMulAdd => "mul+add",
            Opcode::FusedCmpBr => "cmp+br",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The recurring DFG patterns of Table 4, used by the fusion pass and
/// reported by the `table4_patterns` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedPattern {
    /// `phi → add → add` chain (and its `phi+add` / bare-`phi` prefixes).
    PhiAddAdd,
    /// `add → add` chain.
    AddAdd,
    /// `cmp → select`.
    CmpSelect,
    /// `mul → add → add` chain (and `mul+add` / bare-`mul`).
    MulAddAdd,
    /// `cmp → br`.
    CmpBr,
}

impl FusedPattern {
    /// All Table 4 patterns, in table column order.
    pub const ALL: [FusedPattern; 5] = [
        FusedPattern::PhiAddAdd,
        FusedPattern::AddAdd,
        FusedPattern::CmpSelect,
        FusedPattern::MulAddAdd,
        FusedPattern::CmpBr,
    ];

    /// Table-header name.
    pub fn name(self) -> &'static str {
        match self {
            FusedPattern::PhiAddAdd => "phi+add(+add)",
            FusedPattern::AddAdd => "add+add",
            FusedPattern::CmpSelect => "cmp+select",
            FusedPattern::MulAddAdd => "mul+add(+add)",
            FusedPattern::CmpBr => "cmp+br",
        }
    }
}

impl fmt::Display for FusedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_compute_partition() {
        assert!(Opcode::Load.is_memory());
        assert!(Opcode::Store.is_memory());
        assert!(!Opcode::Load.is_compute());
        assert!(Opcode::Add.is_compute());
        assert!(Opcode::FusedMulAdd.is_compute());
    }

    #[test]
    fn fused_widths() {
        assert_eq!(Opcode::FusedPhiAddAdd.fused_width(), 3);
        assert_eq!(Opcode::FusedMulAdd.fused_width(), 2);
        assert_eq!(Opcode::Add.fused_width(), 1);
        assert!(Opcode::FusedCmpBr.is_fused());
        assert!(!Opcode::Cmp.is_fused());
    }

    #[test]
    fn special_units_are_cot_only() {
        for op in [Opcode::Fp2Fx, Opcode::Pow2i, Opcode::LutRead, Opcode::Div] {
            assert!(op.needs_special_unit(), "{op}");
        }
        assert!(!Opcode::Add.needs_special_unit());
    }

    #[test]
    fn vectorization_exclusions_match_paper() {
        // §5.3.3: phi is not vectorizable; division is split instead.
        assert!(!Opcode::Phi.is_vectorizable());
        assert!(!Opcode::Div.is_vectorizable());
        assert!(Opcode::Mul.is_vectorizable());
        assert!(Opcode::FusedMulAdd.is_vectorizable());
    }

    #[test]
    fn div_is_pipelined_multicycle() {
        assert!(Opcode::Div.latency() > 1);
        assert_eq!(Opcode::FusedMulAddAdd.latency(), 1);
    }

    #[test]
    fn mnemonics_unique() {
        let all = [
            Opcode::Phi, Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
            Opcode::Cmp, Opcode::Select, Opcode::Br, Opcode::Load, Opcode::Store,
            Opcode::Shift, Opcode::Const, Opcode::Param, Opcode::Fp2Fx, Opcode::Pow2i,
            Opcode::LutRead,
            Opcode::FusedPhiAddAdd, Opcode::FusedPhiAdd, Opcode::FusedAddAdd,
            Opcode::FusedCmpSelect, Opcode::FusedMulAddAdd, Opcode::FusedMulAdd,
            Opcode::FusedCmpBr,
        ];
        let mut names: Vec<_> = all.iter().map(|o| o.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
