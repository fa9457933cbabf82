//! MRRG resource mask: which tiles and mesh links the mapper may use.
//!
//! Fault-aware mapping (NEURA-style retargeting around arbitrary resource
//! subsets) needs the MRRG restricted to the *alive* fabric: dead PEs can
//! neither compute nor forward operands, and dead links cannot carry them in
//! either direction. A [`ResourceMask`] captures that restriction as plain
//! data the mapper consults for three questions — is this tile usable, how
//! many hops between two tiles, and through which intermediate tiles does an
//! operand travel.
//!
//! Determinism has two tiers:
//!
//! * A **full** mask (nothing dead) answers with the legacy geometry —
//!   Manhattan hop counts and row-first L-shaped paths — so every healthy
//!   mapping is bit-identical to what the mapper produced before fault
//!   support existed.
//! * A **degraded** mask precomputes all-pairs shortest paths by BFS over
//!   the alive subgraph, visiting neighbours in the fixed
//!   [`CgraSpec::neighbors`] order, so detours are deterministic too.
//!   Unreachable pairs answer `None` and the mapper treats the candidate
//!   placement as infeasible.
//!
//! Paths are answered as a borrowed [`PathWalk`]: row-first stepping on a
//! full mask, a slice of the flat BFS table on a degraded one. The mapper
//! asks for a path on every routing probe of every placement candidate, so
//! the walk allocates nothing.

use crate::arch::CgraSpec;
use std::collections::BTreeSet;
use std::fmt;

/// The unusable-resource set, with routing tables over what survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceMask {
    rows: usize,
    cols: usize,
    alive: Vec<bool>,
    dead_links: BTreeSet<(usize, usize)>,
    /// `true` when nothing is masked: the legacy fast path.
    full: bool,
    /// `(row, col)` per tile, so the full mask's geometry divides nothing;
    /// empty for a degraded mask.
    coords: Vec<(usize, usize)>,
    /// All-pairs hop counts over the alive subgraph (`u32::MAX` =
    /// unreachable); empty for a full mask.
    hop_table: Vec<u32>,
    /// All-pairs intermediate-tile paths (excluding both endpoints),
    /// concatenated in `(src, dst)` row-major order; empty for a full mask.
    path_table: Vec<usize>,
    /// `path_start[src·n + dst]` is where that pair's path begins in
    /// `path_table`; one trailing entry closes the last pair.
    path_start: Vec<usize>,
}

impl ResourceMask {
    /// The identity mask: every tile and link usable.
    pub fn full(spec: &CgraSpec) -> ResourceMask {
        ResourceMask {
            rows: spec.rows,
            cols: spec.cols,
            alive: vec![true; spec.len()],
            dead_links: BTreeSet::new(),
            full: true,
            coords: (0..spec.len()).map(|t| spec.coords(t)).collect(),
            hop_table: Vec::new(),
            path_table: Vec::new(),
            path_start: Vec::new(),
        }
    }

    /// A mask with the given dead tiles and dead links (link endpoint order
    /// does not matter). Out-of-range indices are ignored. An empty fault
    /// set degenerates to [`ResourceMask::full`], fast path included.
    pub fn degraded<I, J>(spec: &CgraSpec, dead_tiles: I, dead_links: J) -> ResourceMask
    where
        I: IntoIterator<Item = usize>,
        J: IntoIterator<Item = (usize, usize)>,
    {
        let n = spec.len();
        let mut alive = vec![true; n];
        for t in dead_tiles {
            if t < n {
                alive[t] = false;
            }
        }
        let mut links = BTreeSet::new();
        for (a, b) in dead_links {
            if a < n && b < n {
                links.insert((a.min(b), a.max(b)));
            }
        }
        if alive.iter().all(|&a| a) && links.is_empty() {
            return ResourceMask::full(spec);
        }
        let mut mask = ResourceMask {
            rows: spec.rows,
            cols: spec.cols,
            alive,
            dead_links: links,
            full: false,
            coords: Vec::new(),
            hop_table: vec![u32::MAX; n * n],
            path_table: Vec::new(),
            path_start: Vec::with_capacity(n * n + 1),
        };
        mask.build_tables(spec);
        mask
    }

    /// BFS from every alive source over the alive subgraph, neighbours in
    /// [`CgraSpec::neighbors`] order (deterministic detours).
    fn build_tables(&mut self, spec: &CgraSpec) {
        let n = spec.len();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut dist: Vec<u32> = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..n {
            if !self.alive[src] {
                self.path_start.extend(std::iter::repeat_n(self.path_table.len(), n));
                continue;
            }
            parent.fill(None);
            dist.fill(u32::MAX);
            dist[src] = 0;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for v in spec.neighbors(u) {
                    if !self.alive[v]
                        || self.dead_links.contains(&(u.min(v), u.max(v)))
                        || dist[v] != u32::MAX
                    {
                        continue;
                    }
                    dist[v] = dist[u] + 1;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
            for (dst, &d) in dist.iter().enumerate() {
                let start = self.path_table.len();
                self.path_start.push(start);
                if d == u32::MAX {
                    continue;
                }
                self.hop_table[src * n + dst] = d;
                // walk dst -> src by parents, collect intermediates
                let mut cur = dst;
                while let Some(p) = parent[cur] {
                    if p != src {
                        self.path_table.push(p);
                    }
                    cur = p;
                }
                self.path_table[start..].reverse();
            }
        }
        self.path_start.push(self.path_table.len());
    }

    /// `true` when nothing is masked.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether tile `t` is usable (for compute *and* routing).
    pub fn tile_alive(&self, t: usize) -> bool {
        self.alive.get(t).copied().unwrap_or(false)
    }

    /// Number of usable tiles.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether the mesh link between tiles `a` and `b` is usable: both
    /// endpoints alive and the (direction-agnostic) link not masked out.
    /// Adjacency is the caller's concern — the router only asks about pairs
    /// it got from [`CgraSpec::neighbors`].
    pub fn link_alive(&self, a: usize, b: usize) -> bool {
        self.tile_alive(a)
            && self.tile_alive(b)
            && !self.dead_links.contains(&(a.min(b), a.max(b)))
    }

    /// Hop count from `a` to `b` over the alive fabric; `None` when
    /// unreachable (or either endpoint is dead).
    pub fn hops(&self, a: usize, b: usize) -> Option<u32> {
        if self.full {
            let ((ar, ac), (br, bc)) = (self.coords[a], self.coords[b]);
            return Some((ar.abs_diff(br) + ac.abs_diff(bc)) as u32);
        }
        let n = self.alive.len();
        let h = self.hop_table[a * n + b];
        (h != u32::MAX).then_some(h)
    }

    /// The intermediate tiles (excluding both endpoints) an operand from `a`
    /// to `b` traverses, in travel order; `None` when unreachable. On the
    /// full mask this is the legacy row-first L-shaped path.
    pub fn path(&self, a: usize, b: usize) -> Option<PathWalk<'_>> {
        if self.full {
            let ((r, c), (to_r, to_c)) = (self.coords[a], self.coords[b]);
            let row_run = c.abs_diff(to_c);
            return Some(PathWalk(Walk::RowFirst {
                at: a,
                row_run,
                row_step: if to_c < c { usize::MAX } else { 1 },
                col_step: if to_r < r { self.cols.wrapping_neg() } else { self.cols },
                left: (row_run + r.abs_diff(to_r)).saturating_sub(1),
            }));
        }
        let i = a * self.alive.len() + b;
        if self.hop_table[i] == u32::MAX {
            return None;
        }
        let tiles = &self.path_table[self.path_start[i]..self.path_start[i + 1]];
        Some(PathWalk(Walk::Table(tiles.iter())))
    }
}

/// The intermediate tiles of one operand route, walked without allocating
/// (see [`ResourceMask::path`]).
#[derive(Debug, Clone)]
pub struct PathWalk<'a>(Walk<'a>);

#[derive(Debug, Clone)]
enum Walk<'a> {
    /// Healthy fabric: two straight runs from tile `at`, `row_run` steps
    /// of `row_step` (±1) along the row to the destination column, then
    /// steps of `col_step` (±cols) along the column; `left` intermediate
    /// tiles remain to yield. Steps add in wrapping arithmetic, so a
    /// negative step is its two's complement.
    RowFirst { at: usize, row_run: usize, row_step: usize, col_step: usize, left: usize },
    /// Degraded fabric: the precomputed BFS detour.
    Table(std::slice::Iter<'a, usize>),
}

impl Iterator for PathWalk<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.0 {
            Walk::RowFirst { at, row_run, row_step, col_step, left } => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                let step = if *row_run > 0 {
                    *row_run -= 1;
                    *row_step
                } else {
                    *col_step
                };
                *at = at.wrapping_add(step);
                Some(*at)
            }
            Walk::Table(tiles) => tiles.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            Walk::RowFirst { left, .. } => *left,
            Walk::Table(tiles) => tiles.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for PathWalk<'_> {}

impl fmt::Display for ResourceMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.full {
            write!(f, "mask: full fabric")
        } else {
            write!(
                f,
                "mask: {}/{} tiles alive, {} dead links",
                self.alive_count(),
                self.alive.len(),
                self.dead_links.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CgraSpec {
        CgraSpec::picachu(4, 4)
    }

    fn path_vec(m: &ResourceMask, a: usize, b: usize) -> Option<Vec<usize>> {
        m.path(a, b).map(Iterator::collect)
    }

    /// The row-first path as the mapper always built it: step along the
    /// row, then the column, collecting every tile, then drop the
    /// destination.
    fn legacy_row_first(spec: &CgraSpec, from: usize, to: usize) -> Vec<usize> {
        let (fr, fc) = spec.coords(from);
        let (tr, tc) = spec.coords(to);
        let mut tiles = Vec::new();
        let mut c = fc;
        while c != tc {
            c = if c < tc { c + 1 } else { c - 1 };
            tiles.push(fr * spec.cols + c);
        }
        let mut r = fr;
        while r != tr {
            r = if r < tr { r + 1 } else { r - 1 };
            tiles.push(r * spec.cols + tc);
        }
        tiles.pop();
        tiles
    }

    /// The per-pair BFS path table as the mask used to store it: one `Vec`
    /// per `(src, dst)`, `None` when unreachable.
    fn legacy_bfs_paths(spec: &CgraSpec, m: &ResourceMask) -> Vec<Option<Vec<usize>>> {
        let n = spec.len();
        let mut table = vec![None; n * n];
        for src in (0..n).filter(|&t| m.tile_alive(t)) {
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut dist = vec![u32::MAX; n];
            dist[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                let mut nbs = Vec::new();
                let (r, c) = spec.coords(u);
                if r > 0 {
                    nbs.push(u - spec.cols);
                }
                if r + 1 < spec.rows {
                    nbs.push(u + spec.cols);
                }
                if c > 0 {
                    nbs.push(u - 1);
                }
                if c + 1 < spec.cols {
                    nbs.push(u + 1);
                }
                for v in nbs {
                    if m.link_alive(u, v) && dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        parent[v] = Some(u);
                        queue.push_back(v);
                    }
                }
            }
            for dst in (0..n).filter(|&d| dist[d] != u32::MAX) {
                let mut inter = Vec::new();
                let mut cur = dst;
                while let Some(p) = parent[cur] {
                    if p != src {
                        inter.push(p);
                    }
                    cur = p;
                }
                inter.reverse();
                table[src * n + dst] = Some(inter);
            }
        }
        table
    }

    #[test]
    fn full_mask_matches_legacy_geometry() {
        // non-square fabrics catch a row/column swap in the geometry
        let specs = [
            spec(),
            CgraSpec::picachu(16, 16),
            CgraSpec::universal(1, 7),
            CgraSpec::picachu(3, 5),
            CgraSpec::universal(5, 2),
        ];
        for s in specs {
            let m = ResourceMask::full(&s);
            assert!(m.is_full());
            for a in 0..s.len() {
                for b in 0..s.len() {
                    assert_eq!(m.hops(a, b), Some(s.hops(a, b)));
                    let walk = m.path(a, b).expect("full fabric is connected");
                    assert_eq!(walk.len(), legacy_row_first(&s, a, b).len(), "{a}->{b}");
                    assert_eq!(walk.collect::<Vec<_>>(), legacy_row_first(&s, a, b), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn degraded_walk_matches_legacy_bfs_table() {
        let cases = [
            (CgraSpec::picachu(4, 4), vec![5, 6], vec![(9, 10), (0, 1)]),
            (CgraSpec::picachu(4, 4), vec![8], vec![(0, 1)]),
            (CgraSpec::picachu(4, 4), vec![1, 4], vec![]),
            (CgraSpec::universal(2, 3), vec![1], vec![(3, 4)]),
            (CgraSpec::universal(1, 3), vec![1], vec![]),
            (CgraSpec::universal(1, 3), vec![], vec![(0, 1)]),
        ];
        for (s, dead, links) in cases {
            let m = ResourceMask::degraded(&s, dead.iter().copied(), links.iter().copied());
            assert!(!m.is_full());
            let legacy = legacy_bfs_paths(&s, &m);
            let mut unreachable = 0;
            for a in 0..s.len() {
                for b in 0..s.len() {
                    let want = &legacy[a * s.len() + b];
                    unreachable += usize::from(want.is_none());
                    assert_eq!(&path_vec(&m, a, b), want, "{a}->{b} dead {dead:?} {links:?}");
                    if let Some(walk) = m.path(a, b) {
                        assert_eq!(walk.len(), want.as_ref().map_or(0, Vec::len));
                    }
                }
            }
            assert!(unreachable > 0, "every case has dead endpoints or cut pairs");
        }
    }

    #[test]
    fn empty_fault_set_degenerates_to_full() {
        let s = spec();
        let m = ResourceMask::degraded(&s, [], []);
        assert!(m.is_full());
        assert_eq!(m, ResourceMask::full(&s));
    }

    #[test]
    fn degraded_hops_match_manhattan_when_unobstructed() {
        // killing tile 15 (corner) leaves all other pairs at Manhattan
        // distance on a 4x4 mesh
        let s = spec();
        let m = ResourceMask::degraded(&s, [15], []);
        for a in 0..15 {
            for b in 0..15 {
                assert_eq!(m.hops(a, b), Some(s.hops(a, b)), "{a}->{b}");
            }
        }
        assert_eq!(m.hops(0, 15), None);
        assert_eq!(m.hops(15, 0), None);
        assert!(!m.tile_alive(15));
        assert_eq!(m.alive_count(), 15);
    }

    #[test]
    fn dead_tile_forces_detour() {
        // 1x3 row: killing the middle tile disconnects the ends
        let s = CgraSpec::universal(1, 3);
        let m = ResourceMask::degraded(&s, [1], []);
        assert_eq!(m.hops(0, 2), None);
        // 2x3: the detour goes through the second row (4 hops instead of 2)
        let s2 = CgraSpec::universal(2, 3);
        let m2 = ResourceMask::degraded(&s2, [1], []);
        assert_eq!(m2.hops(0, 2), Some(4));
        let path = path_vec(&m2, 0, 2).expect("reachable");
        assert_eq!(path.len(), 3, "4 hops = 3 intermediates: {path:?}");
        assert!(!path.contains(&1), "path must avoid the dead tile");
    }

    #[test]
    fn dead_link_blocks_both_directions() {
        let s = CgraSpec::universal(1, 2);
        let m = ResourceMask::degraded(&s, [], [(1, 0)]);
        assert_eq!(m.hops(0, 1), None);
        assert_eq!(m.hops(1, 0), None);
        // with an alternative route the link death only detours
        let s2 = CgraSpec::universal(2, 2);
        let m2 = ResourceMask::degraded(&s2, [], [(0, 1)]);
        assert_eq!(m2.hops(0, 1), Some(3), "0->2->3->1");
        assert_eq!(path_vec(&m2, 0, 1), Some(vec![2, 3]));
    }

    #[test]
    fn path_intermediates_are_alive_and_adjacent() {
        let s = spec();
        let m = ResourceMask::degraded(&s, [5, 6], [(9, 10)]);
        for a in 0..s.len() {
            for b in 0..s.len() {
                if !m.tile_alive(a) || !m.tile_alive(b) {
                    assert_eq!(m.hops(a, b), None);
                    continue;
                }
                let Some(path) = path_vec(&m, a, b) else { continue };
                let hops = m.hops(a, b).expect("path implies hops");
                if a == b {
                    assert_eq!(hops, 0);
                    assert!(path.is_empty());
                    continue;
                }
                assert_eq!(path.len() as u32, hops - 1, "{a}->{b}");
                let full: Vec<usize> =
                    std::iter::once(a).chain(path.iter().copied()).chain([b]).collect();
                for w in full.windows(2) {
                    assert_eq!(s.hops(w[0], w[1]), 1, "non-adjacent step in {full:?}");
                    assert!(m.tile_alive(w[1]));
                    assert!(
                        !m.dead_links.contains(&(w[0].min(w[1]), w[0].max(w[1]))),
                        "path {full:?} crosses dead link"
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_is_deterministic() {
        let s = spec();
        let a = ResourceMask::degraded(&s, [3, 7], [(0, 1), (8, 12)]);
        let b = ResourceMask::degraded(&s, [7, 3], [(1, 0), (12, 8)]);
        assert_eq!(a, b, "construction order and link direction are irrelevant");
    }
}
