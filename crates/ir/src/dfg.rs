//! Data-flow graphs with loop-carried edges.
//!
//! A [`Dfg`] represents the body of one single-level loop in steady state:
//! each node is one instruction, intra-iteration dependences are edges with
//! distance 0, and loop-carried dependences (φ back-edges) carry distance ≥ 1.
//! The two analyses the compiler and the motivation study need live here:
//! the recurrence-constrained minimum II (`RecMII`) and the §3.1
//! computational-intensity metric.

use crate::opcode::Opcode;
use std::collections::VecDeque;
use std::fmt;

/// Index of a node within its [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A dependence edge: `from` produces a value consumed by the owning node,
/// `distance` iterations later (0 = same iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Loop-carried dependence distance in iterations.
    pub distance: u32,
}

/// One instruction of the loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// This node's id (equal to its index in [`Dfg::nodes`]).
    pub id: NodeId,
    /// Operation.
    pub op: Opcode,
    /// Input dependences.
    pub inputs: Vec<Edge>,
    /// Immediate operands (folded constants). Primitive nodes use at most
    /// one; fused nodes carry their members' immediates in chain order.
    /// Semantics per opcode are defined by [`crate::interp`].
    pub imms: Vec<f32>,
    /// For fused nodes: how many external inputs each member contributed,
    /// in chain order (the operand routing inside the fused FU). Empty for
    /// primitive nodes.
    pub member_inputs: Vec<u8>,
}

/// The data-flow graph of one loop body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dfg {
    /// Kernel-loop label, e.g. `"softmax(2)"`.
    pub name: String,
    nodes: Vec<Node>,
}

impl Dfg {
    /// Creates an empty DFG with the given label.
    pub fn new(name: impl Into<String>) -> Dfg {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Appends a node and returns its id. Structural invariants (edge
    /// targets in range, topological ordering of same-iteration edges) are
    /// checked by [`Dfg::validate`], which the builder runs on `finish`.
    pub fn push(&mut self, op: Opcode, inputs: Vec<Edge>) -> NodeId {
        self.push_imm(op, inputs, Vec::new())
    }

    /// [`Dfg::push`] with immediate operands.
    pub fn push_imm(&mut self, op: Opcode, inputs: Vec<Edge>, imms: Vec<f32>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { id, op, inputs, imms, member_inputs: Vec::new() });
        id
    }

    /// Appends a fully-specified node (used by the fusion pass, which also
    /// sets the per-member operand routing). The node's `id` is assigned
    /// here.
    pub fn push_node(&mut self, mut node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        node.id = id;
        self.nodes.push(node);
        id
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node lookup.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a loop-carried dependence edge after both endpoints exist
    /// (recurrences cannot be expressed at `push` time because the producer
    /// is created after the φ that consumes it).
    ///
    /// # Panics
    /// Panics if either node is missing or `distance == 0`.
    pub fn add_loop_edge(&mut self, target: NodeId, from: NodeId, distance: u32) {
        assert!(distance > 0, "loop edges need distance >= 1");
        assert!(target.0 < self.nodes.len() && from.0 < self.nodes.len());
        self.nodes[target.0].inputs.push(Edge { from, distance });
    }

    /// Replaces the node list wholesale (used by the fusion/vectorization
    /// transforms, which rebuild graphs).
    pub fn replace_nodes(&mut self, nodes: Vec<Node>) {
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.0, i, "node ids must equal indices after rebuild");
        }
        self.nodes = nodes;
    }

    /// Successor lists (same-iteration and loop-carried).
    pub fn successors(&self) -> Vec<Vec<NodeId>> {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for e in &n.inputs {
                succ[e.from.0].push(n.id);
            }
        }
        succ
    }

    /// Count of memory-access nodes (loads + stores).
    pub fn memory_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_memory()).count()
    }

    /// Count of computation nodes.
    pub fn compute_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_compute()).count()
    }

    /// §3.1 computational intensity: compute nodes / memory nodes.
    ///
    /// Returns `f64::INFINITY` for graphs without memory accesses.
    pub fn computational_intensity(&self) -> f64 {
        let mem = self.memory_nodes();
        if mem == 0 {
            f64::INFINITY
        } else {
            self.compute_nodes() as f64 / mem as f64
        }
    }

    /// The recurrence-constrained minimum initiation interval:
    /// `RecMII = max over cycles ⌈Σ latency / Σ distance⌉`.
    ///
    /// An II is feasible when the constraint graph (edge weight `latency of
    /// the producer − II·distance`) has no positive cycle. Every cycle lies
    /// inside one strongly connected component, so only the components that
    /// contain a cycle — the recurrences, a few nodes each even in unrolled
    /// loops — get a Floyd–Warshall longest-path check. Feasibility is
    /// monotone in II (distances are non-negative, so every cycle's weight
    /// falls as II grows), so the smallest feasible II is binary-searched in
    /// `1..=4n+4`. Returns 1 for acyclic graphs and `4n + 4` when no II in
    /// that range is feasible.
    pub fn rec_mii(&self) -> u32 {
        let cap = self.nodes.len() as u32 * 4 + 4;
        let recurrences = self.recurrences();
        if recurrences.is_empty() {
            return 1;
        }
        let feasible = |ii: u32| {
            recurrences.iter().all(|(size, edges)| !has_positive_cycle(*size, edges, ii))
        };
        if !feasible(cap) {
            return cap;
        }
        let (mut lo, mut hi) = (1, cap);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The strongly connected components that contain a cycle (more than one
    /// node, or a self-edge), each as its size and its internal edges
    /// `(from, to, producer latency, distance)` over component-local node
    /// indices. Tarjan's algorithm with an explicit call stack.
    fn recurrences(&self) -> Vec<(usize, Vec<RecEdge>)> {
        const UNSEEN: usize = usize::MAX;
        let n = self.nodes.len();
        let succ = self.successors();
        let (mut index, mut low) = (vec![UNSEEN; n], vec![0; n]);
        let mut on_stack = vec![false; n];
        let (mut stack, mut call, mut comps) = (Vec::new(), Vec::new(), Vec::new());
        let mut next = 0;
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            call.push((root, 0));
            while let Some(&(v, k)) = call.last() {
                if k == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&NodeId(w)) = succ[v].get(k) {
                    let top = call.len() - 1;
                    call[top].1 += 1;
                    if index[w] == UNSEEN {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
        // component-local index of every node, then each component's edges
        let mut local = vec![(0, 0); n];
        for (c, comp) in comps.iter().enumerate() {
            for (i, &v) in comp.iter().enumerate() {
                local[v] = (c, i);
            }
        }
        let mut edges: Vec<Vec<RecEdge>> = vec![Vec::new(); comps.len()];
        for node in &self.nodes {
            let (c, to) = local[node.id.0];
            for e in &node.inputs {
                let (cf, from) = local[e.from.0];
                if cf == c {
                    let lat = i64::from(self.nodes[e.from.0].op.latency());
                    edges[c].push((from, to, lat, i64::from(e.distance)));
                }
            }
        }
        comps
            .iter()
            .zip(edges)
            .filter(|(_, es)| !es.is_empty())
            .map(|(comp, es)| (comp.len(), es))
            .collect()
    }

    /// ASAP (as-soon-as-possible) schedule levels ignoring loop-carried
    /// edges; the critical path length is `max(level) + latency`.
    pub fn asap_levels(&self) -> Vec<u32> {
        let n = self.nodes.len();
        let mut level = vec![0u32; n];
        let mut indeg = vec![0usize; n];
        for node in &self.nodes {
            indeg[node.id.0] = node.inputs.iter().filter(|e| e.distance == 0).count();
        }
        let mut queue: VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let succ = self.successors();
        let mut seen = 0usize;
        while let Some(i) = queue.pop_front() {
            seen += 1;
            for &s in &succ[i] {
                // only same-iteration edges advance the schedule
                let node = &self.nodes[s.0];
                let carried = node
                    .inputs
                    .iter()
                    .any(|e| e.from.0 == i && e.distance == 0);
                if !carried {
                    continue;
                }
                let cand = level[i] + self.nodes[i].op.latency();
                if cand > level[s.0] {
                    level[s.0] = cand;
                }
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    queue.push_back(s.0);
                }
            }
        }
        assert_eq!(seen, n, "same-iteration subgraph of '{}' has a cycle", self.name);
        level
    }

    /// Critical-path length over same-iteration edges.
    pub fn critical_path(&self) -> u32 {
        self.nodes
            .iter()
            .map(|n| self.asap_levels()[n.id.0] + n.op.latency())
            .max()
            .unwrap_or(0)
    }

    /// Validates structural invariants: edge targets in range, same-iteration
    /// edges only point backwards in insertion order (so the steady-state
    /// subgraph is a DAG), and only φ-class nodes carry loop distance.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for node in &self.nodes {
            for e in &node.inputs {
                if e.from.0 >= self.nodes.len() {
                    return Err(format!("{}: edge from missing node {}", self.name, e.from));
                }
                if e.distance == 0 && e.from.0 >= node.id.0 {
                    return Err(format!(
                        "{}: same-iteration edge {} -> {} not topologically ordered",
                        self.name, e.from, node.id
                    ));
                }
                if e.distance > 0
                    && !matches!(
                        node.op,
                        Opcode::Phi | Opcode::FusedPhiAdd | Opcode::FusedPhiAddAdd | Opcode::FusedCmpSelect
                    )
                {
                    return Err(format!(
                        "{}: loop-carried edge into non-phi node {} ({})",
                        self.name, node.id, node.op
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sum of primitive operations represented (fused nodes count their
    /// width) — lets tests check fusion conserves work.
    pub fn primitive_op_count(&self) -> usize {
        self.nodes.iter().map(|n| n.op.fused_width()).sum()
    }
}

/// One edge inside a recurrence: `(from, to, producer latency, distance)`
/// over component-local node indices.
type RecEdge = (usize, usize, i64, i64);

/// Whether the recurrence of `size` nodes with `edges` has a cycle of
/// positive weight `Σ latency − ii·Σ distance` (Floyd–Warshall longest paths:
/// some `d[i][i] > 0` exactly when such a cycle exists). Stops at the first
/// positive diagonal, before walks around it can grow the path weights.
fn has_positive_cycle(size: usize, edges: &[RecEdge], ii: u32) -> bool {
    const NEG: i64 = i64::MIN / 4;
    let mut d = vec![NEG; size * size];
    for &(from, to, lat, dist) in edges {
        let cell = &mut d[from * size + to];
        *cell = (*cell).max(lat - i64::from(ii) * dist);
    }
    for k in 0..size {
        for i in 0..size {
            let ik = d[i * size + k];
            if ik == NEG {
                continue;
            }
            for j in 0..size {
                let kj = d[k * size + j];
                if kj != NEG && ik + kj > d[i * size + j] {
                    d[i * size + j] = ik + kj;
                }
            }
        }
        if (0..size).any(|i| d[i * size + i] > 0) {
            return true;
        }
    }
    false
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dfg '{}' ({} nodes):", self.name, self.nodes.len())?;
        for n in &self.nodes {
            let ins: Vec<String> = n
                .inputs
                .iter()
                .map(|e| {
                    if e.distance > 0 {
                        format!("{}@{}", e.from, e.distance)
                    } else {
                        e.from.to_string()
                    }
                })
                .collect();
            writeln!(f, "  {} = {} [{}]", n.id, n.op, ins.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: NodeId) -> Edge {
        Edge { from, distance: 0 }
    }

    fn carried(from: NodeId) -> Edge {
        Edge { from, distance: 1 }
    }

    /// A minimal accumulation loop: phi <- phi + load.
    fn accum_dfg() -> Dfg {
        let mut g = Dfg::new("accum");
        let ld = g.push(Opcode::Load, vec![]);
        let phi = g.push(Opcode::Phi, vec![]);
        let add = g.push(Opcode::Add, vec![edge(phi), edge(ld)]);
        // close the recurrence: phi takes add from previous iteration
        let nodes = {
            let mut ns = g.nodes().to_vec();
            ns[phi.0].inputs.push(carried(add));
            ns
        };
        g.replace_nodes(nodes);
        g
    }

    #[test]
    fn push_and_lookup() {
        let g = accum_dfg();
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(NodeId(2)).op, Opcode::Add);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn recurrence_ii_of_accumulator() {
        // phi(1) -> add(1) cycle with distance 1 => RecMII = 2.
        assert_eq!(accum_dfg().rec_mii(), 2);
    }

    #[test]
    fn fused_accumulator_halves_recmii() {
        // phi+add fused: self-loop latency 1, distance 1 => RecMII 1.
        let mut g = Dfg::new("fused-accum");
        let ld = g.push(Opcode::Load, vec![]);
        let acc = g.push(Opcode::FusedPhiAdd, vec![edge(ld)]);
        let mut ns = g.nodes().to_vec();
        ns[acc.0].inputs.push(carried(acc));
        g.replace_nodes(ns);
        assert_eq!(g.rec_mii(), 1);
    }

    #[test]
    fn slowest_of_several_recurrences_sets_recmii() {
        // phi -> add (RecMII 2) beside phi -> div (1 + 4 over distance 1)
        // and a distance-2 phi -> mul -> mul ring (3 over 2 rounds up to 2)
        let mut g = accum_dfg();
        let p2 = g.push(Opcode::Phi, vec![]);
        let div = g.push(Opcode::Div, vec![edge(p2)]);
        g.add_loop_edge(p2, div, 1);
        let p3 = g.push(Opcode::Phi, vec![]);
        let m1 = g.push(Opcode::Mul, vec![edge(p3)]);
        let m2 = g.push(Opcode::Mul, vec![edge(m1)]);
        g.add_loop_edge(p3, m2, 2);
        assert!(g.validate().is_ok());
        assert_eq!(g.rec_mii(), 5);
        assert_eq!(g.recurrences().len(), 3);
    }

    #[test]
    fn acyclic_graph_recmii_one() {
        let mut g = Dfg::new("straight");
        let a = g.push(Opcode::Load, vec![]);
        let b = g.push(Opcode::Mul, vec![edge(a)]);
        g.push(Opcode::Store, vec![edge(b)]);
        assert_eq!(g.rec_mii(), 1);
    }

    #[test]
    fn intensity_counts() {
        let g = accum_dfg();
        assert_eq!(g.memory_nodes(), 1);
        assert_eq!(g.compute_nodes(), 2);
        assert!((g.computational_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn intensity_infinite_without_memory() {
        let mut g = Dfg::new("pure");
        g.push(Opcode::Const, vec![]);
        assert_eq!(g.computational_intensity(), f64::INFINITY);
    }

    #[test]
    fn critical_path_chain() {
        let mut g = Dfg::new("chain");
        let a = g.push(Opcode::Load, vec![]);
        let b = g.push(Opcode::Mul, vec![edge(a)]);
        let c = g.push(Opcode::Add, vec![edge(b)]);
        g.push(Opcode::Store, vec![edge(c)]);
        assert_eq!(g.critical_path(), 4);
    }

    #[test]
    fn div_latency_lengthens_path() {
        let mut g = Dfg::new("divchain");
        let a = g.push(Opcode::Load, vec![]);
        let b = g.push(Opcode::Div, vec![edge(a)]);
        g.push(Opcode::Store, vec![edge(b)]);
        assert_eq!(g.critical_path(), 1 + 4 + 1);
    }

    #[test]
    fn validate_rejects_forward_edge() {
        let mut g = Dfg::new("bad");
        g.push(Opcode::Add, vec![Edge { from: NodeId(1), distance: 0 }]);
        g.push(Opcode::Add, vec![]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_carried_into_non_phi() {
        let mut g = Dfg::new("bad2");
        let a = g.push(Opcode::Add, vec![]);
        let b = g.push(Opcode::Mul, vec![]);
        let mut ns = g.nodes().to_vec();
        ns[a.0].inputs.push(carried(b));
        g.replace_nodes(ns);
        assert!(g.validate().is_err());
    }

    #[test]
    fn primitive_conservation() {
        let mut g = Dfg::new("fused");
        g.push(Opcode::FusedMulAddAdd, vec![]);
        g.push(Opcode::Add, vec![]);
        assert_eq!(g.primitive_op_count(), 4);
    }
}
