//! CGRA architecture description (§4.2): a 2-D mesh of heterogeneous tiles.
//!
//! The PICACHU CGRA arranges three tile classes on the grid: **Compute Tiles**
//! (CoT — multipliers with mul-chain fusions, the FP2FX/Pow2i special units,
//! the LUT, the pipelined divider and Shared Buffer ports) on the
//! buffer-facing column, **Branch-optimized Tiles** (BrT — predication,
//! `cmp+br` / `cmp+select` fusions, and buffer ports on the opposite edge)
//! and **Basic Tiles** (BaT — ALUs with the add-chain fusions) in between.
//! A conventional homogeneous baseline (the Fig. 7a comparison) supports all
//! primitive operations everywhere but has no fused opcodes and no special
//! functional units.

use picachu_ir::Opcode;
use std::fmt;

/// Tile class in the heterogeneous PICACHU CGRA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileClass {
    /// Basic Tile: ALU ops + add-chain fusions (`phi+add+add`, `phi+add`,
    /// `add+add`).
    Basic,
    /// Branch-optimized Tile: ALU ops + branches + `cmp+br`, `cmp+select`,
    /// plus Shared Buffer access through the writeback-edge ports.
    Branch,
    /// Compute Tile: ALU ops + divider, FP2FX, Pow2i, LUT + mul-chain
    /// fusions (`mul+add+add`, `mul+add`).
    Compute,
    /// Homogeneous baseline tile: all primitives, no fusions, no specials.
    Homogeneous,
    /// Universal tile: every operation, fusion and special unit (the
    /// heterogeneity-ablation fabric — maximum flexibility, maximum cost).
    Universal,
}

impl TileClass {
    /// Short label used in displays (`Ba`, `Br`, `Co`, `Ho`).
    pub fn label(self) -> &'static str {
        match self {
            TileClass::Basic => "Ba",
            TileClass::Branch => "Br",
            TileClass::Compute => "Co",
            TileClass::Homogeneous => "Ho",
            TileClass::Universal => "Un",
        }
    }

    /// Whether a tile of this class can execute `op` (memory permission is a
    /// separate per-tile flag).
    pub fn supports(self, op: Opcode) -> bool {
        use Opcode::*;
        let alu = matches!(op, Phi | Add | Sub | Mul | Cmp | Select | Shift | Const | Param);
        match self {
            TileClass::Basic => alu | matches!(op, FusedPhiAddAdd | FusedPhiAdd | FusedAddAdd),
            TileClass::Branch => {
                alu | matches!(op, Br | FusedCmpBr | FusedCmpSelect | Load | Store)
            }
            TileClass::Compute => {
                alu | matches!(
                    op,
                    Div | Fp2Fx | Pow2i | LutRead | FusedMulAdd | FusedMulAddAdd | Load | Store
                )
            }
            TileClass::Homogeneous => {
                // all primitives, including br/div and memory; nothing fused,
                // no special units.
                alu | matches!(op, Br | Div | Load | Store)
            }
            TileClass::Universal => true,
        }
    }
}

impl fmt::Display for TileClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-tile configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Functional class.
    pub class: TileClass,
    /// Whether this tile has a Shared Buffer port (loads/stores allowed).
    pub mem_port: bool,
}

/// A CGRA fabric: `rows × cols` tiles on a 2-D mesh, row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgraSpec {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    tiles: Vec<TileConfig>,
}

impl CgraSpec {
    /// The PICACHU heterogeneous fabric: the buffer-facing column(s) are CoT
    /// (two columns on fabrics ≥ 4 wide — the exp/sin chains need the
    /// mul-fusion and special units in volume), the last column is BrT, and
    /// the middle columns are BaT. Memory ports sit on the first and last
    /// columns, the two edges adjacent to the Shared Buffer's read and
    /// writeback sides.
    ///
    /// Fabrics too narrow for the three-class column layout (`cols < 3`)
    /// fall back to all-Universal tiles with ports everywhere: the
    /// class-specific fused opcodes each live in exactly one class, so
    /// dropping a class would make some kernels unmappable, not merely slow.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn picachu(rows: usize, cols: usize) -> CgraSpec {
        assert!(rows >= 1 && cols >= 1, "fabric needs at least one tile");
        if cols < 3 {
            return CgraSpec::universal(rows, cols);
        }
        let cot_cols = if cols >= 4 { 2 } else { 1 };
        let mut tiles = Vec::with_capacity(rows * cols);
        for _r in 0..rows {
            for c in 0..cols {
                let class = if c < cot_cols {
                    TileClass::Compute
                } else if c == cols - 1 {
                    TileClass::Branch
                } else {
                    TileClass::Basic
                };
                let mem = c == 0 || c == cols - 1;
                tiles.push(TileConfig { class, mem_port: mem });
            }
        }
        CgraSpec { rows, cols, tiles }
    }

    /// An all-universal fabric for the heterogeneity ablation: every tile
    /// carries every FU (including the CoT specials and all fusions), with
    /// the same edge memory ports. Mapping constraints vanish — at maximum
    /// area/power cost (see `CostModel::tile_area`).
    ///
    /// # Panics
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn universal(rows: usize, cols: usize) -> CgraSpec {
        assert!(rows >= 1 && cols >= 1, "fabric needs at least one tile");
        let mut tiles = Vec::with_capacity(rows * cols);
        for _r in 0..rows {
            for c in 0..cols {
                tiles.push(TileConfig {
                    class: TileClass::Universal,
                    mem_port: c == 0 || c == cols - 1,
                });
            }
        }
        CgraSpec { rows, cols, tiles }
    }

    /// The conventional homogeneous scalar baseline of §5.3.2: identical
    /// tiles everywhere, memory ports on both edge columns (same buffer
    /// bandwidth as PICACHU for a fair comparison).
    ///
    /// # Panics
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn homogeneous(rows: usize, cols: usize) -> CgraSpec {
        assert!(rows >= 1 && cols >= 1, "fabric needs at least one tile");
        let mut tiles = Vec::with_capacity(rows * cols);
        for _r in 0..rows {
            for c in 0..cols {
                tiles.push(TileConfig {
                    class: TileClass::Homogeneous,
                    mem_port: c == 0 || c == cols - 1,
                });
            }
        }
        CgraSpec { rows, cols, tiles }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// `true` for a degenerate empty fabric (not constructible through the
    /// public constructors).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Tile configuration by index (row-major).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn tile(&self, idx: usize) -> TileConfig {
        self.tiles[idx]
    }

    /// Whether tile `idx` can execute `op`, including the memory-port check.
    pub fn tile_supports(&self, idx: usize, op: Opcode) -> bool {
        let t = self.tiles[idx];
        if op.is_memory() {
            return t.mem_port && t.class.supports(op);
        }
        t.class.supports(op)
    }

    /// `(row, col)` of a tile index.
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        (idx / self.cols, idx % self.cols)
    }

    /// Manhattan distance between two tiles (mesh hop count).
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        (ar.abs_diff(br) + ac.abs_diff(bc)) as u32
    }

    /// Mesh neighbours of a tile (4-connected), in up, down, left, right
    /// order. The iterator owns its (at most four) tiles; nothing is
    /// allocated.
    pub fn neighbors(&self, idx: usize) -> impl Iterator<Item = usize> {
        let (r, c) = self.coords(idx);
        [
            (r > 0).then(|| idx - self.cols),
            (r + 1 < self.rows).then(|| idx + self.cols),
            (c > 0).then(|| idx - 1),
            (c + 1 < self.cols).then(|| idx + 1),
        ]
        .into_iter()
        .flatten()
    }

    /// Tiles able to execute `op`.
    pub fn tiles_supporting(&self, op: Opcode) -> usize {
        (0..self.len()).filter(|&i| self.tile_supports(i, op)).count()
    }

    /// Count of tiles per class.
    pub fn class_count(&self, class: TileClass) -> usize {
        self.tiles.iter().filter(|t| t.class == class).count()
    }
}

impl fmt::Display for CgraSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} CGRA:", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let t = self.tiles[r * self.cols + c];
                write!(f, " {}{}", t.class.label(), if t.mem_port { "*" } else { " " })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picachu_4x4_layout() {
        let s = CgraSpec::picachu(4, 4);
        assert_eq!(s.len(), 16);
        assert_eq!(s.class_count(TileClass::Compute), 8);
        assert_eq!(s.class_count(TileClass::Branch), 4);
        assert_eq!(s.class_count(TileClass::Basic), 4);
    }

    #[test]
    fn memory_ports_on_edges_only() {
        let s = CgraSpec::picachu(4, 4);
        for i in 0..16 {
            let (_, c) = s.coords(i);
            assert_eq!(s.tile(i).mem_port, c == 0 || c == 3, "tile {i}");
        }
    }

    #[test]
    fn capability_matrix() {
        use Opcode::*;
        assert!(TileClass::Basic.supports(FusedPhiAdd));
        assert!(!TileClass::Basic.supports(FusedMulAdd));
        assert!(!TileClass::Basic.supports(Br));
        assert!(TileClass::Branch.supports(FusedCmpBr));
        assert!(TileClass::Branch.supports(Store));
        assert!(!TileClass::Branch.supports(Div));
        assert!(TileClass::Compute.supports(Fp2Fx));
        assert!(TileClass::Compute.supports(LutRead));
        assert!(!TileClass::Compute.supports(FusedCmpBr));
        // baseline: primitives only
        assert!(TileClass::Homogeneous.supports(Mul));
        assert!(TileClass::Homogeneous.supports(Br));
        assert!(!TileClass::Homogeneous.supports(Fp2Fx));
        assert!(!TileClass::Homogeneous.supports(FusedPhiAdd));
    }

    #[test]
    fn loads_need_mem_port() {
        let s = CgraSpec::picachu(4, 4);
        // tile 1 is a BaT without a port; tiles 0 (CoT) and 3 (BrT) have ports
        assert!(s.tile_supports(0, Opcode::Load));
        assert!(!s.tile_supports(1, Opcode::Load));
        assert!(s.tile_supports(3, Opcode::Store));
        assert_eq!(s.tiles_supporting(Opcode::Load), 8);
    }

    #[test]
    fn hops_and_neighbors() {
        let s = CgraSpec::picachu(4, 4);
        assert_eq!(s.hops(0, 0), 0);
        assert_eq!(s.hops(0, 5), 2); // (0,0)->(1,1)
        assert_eq!(s.hops(0, 15), 6);
        assert_eq!(s.neighbors(0).collect::<Vec<_>>(), [4, 1]);
        assert_eq!(s.neighbors(5).collect::<Vec<_>>(), [1, 9, 4, 6]);
    }

    #[test]
    fn scalability_configs() {
        for (r, c) in [(3usize, 3usize), (4, 4), (5, 5), (4, 8)] {
            let s = CgraSpec::picachu(r, c);
            assert_eq!(s.len(), r * c);
            let cot_cols = if c >= 4 { 2 } else { 1 };
            assert_eq!(s.class_count(TileClass::Compute), r * cot_cols);
            assert_eq!(s.class_count(TileClass::Branch), r);
        }
    }

    #[test]
    fn degenerate_fabrics_fall_back_to_universal() {
        for (r, c) in [(1usize, 1usize), (1, 2), (4, 1), (2, 2)] {
            let s = CgraSpec::picachu(r, c);
            assert_eq!(s.len(), r * c, "{r}x{c}");
            // every tile supports every opcode, including the fused ones
            assert_eq!(s.class_count(TileClass::Universal), r * c);
            assert_eq!(s.tiles_supporting(Opcode::FusedPhiAdd), r * c);
            assert_eq!(s.tiles_supporting(Opcode::Load), r * c.min(2));
        }
        // 3 columns is the narrowest true three-class layout
        let s = CgraSpec::picachu(2, 3);
        assert_eq!(s.class_count(TileClass::Universal), 0);
        assert_eq!(s.class_count(TileClass::Basic), 2);
    }

    #[test]
    fn homogeneous_uniform() {
        let s = CgraSpec::homogeneous(4, 4);
        assert_eq!(s.class_count(TileClass::Homogeneous), 16);
        assert_eq!(s.tiles_supporting(Opcode::Mul), 16);
        assert_eq!(s.tiles_supporting(Opcode::Load), 8);
    }
}
