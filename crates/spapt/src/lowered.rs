//! The production evaluator: a kernel's blocks lowered into flat tables.
//!
//! [`crate::Kernel::new`] lowers each block once: per referenced array, the
//! distinct affine index rows of each dimension, the element size and the
//! extents; per nest, the statement totals (reads, writes, flops, the
//! scalar-replaceable share of the reads), each reference's per-loop
//! variance and the per-loop touch, unit-last-dimension and unit-stride
//! flags of each array. [`Lowered::evaluate`] then prices a configuration
//! straight from its levels on fixed-size stack state: no
//! `ParamSpace::values`, no heap [`crate::BlockTransform`] or
//! [`crate::transform::TransformedNest`], no per-call reference lists.
//! Each array's lines at each boundary depth, and so each depth's
//! footprint, are computed once and shared by every cache level with the
//! same line size.
//!
//! Every `f64` is the one the reference chain (`decode` → `apply` →
//! `analyze` → `breakdown`, reached through [`crate::Uncached`]) computes:
//! each expression keeps its operands, operation order and accumulation
//! order. Three reorderings are exact and used: an inner range is a product
//! of trip counts of at least one, which saturating multiplication gives in
//! any order; an index row that repeats within a dimension cannot move that
//! dimension's minimum or maximum; and the executions of the subnest below
//! each depth are the prefix products the reference recomputes per call.

use pwu_space::ConfigLegality;

use crate::cache::effective_capacity_fraction;
use crate::kernels::{BlockSpec, ParamRole, REGTILE_VALUES, TILE_VALUES};
use crate::machine::MachineModel;
use crate::transform::BlockLegality;

/// Most blocks a kernel may have.
const MAX_BLOCKS: usize = 4;
/// Deepest loop nest a block may have.
const MAX_DEPTH: usize = 4;
/// Most loops of a transformed nest: tile-origin, inner-tile and point band.
const MAX_LOOPS: usize = 3 * MAX_DEPTH;
/// Most arrays one block may reference.
const MAX_ARRAYS: usize = 8;
/// Most dimensions of a referenced array.
const MAX_DIMS: usize = 3;

/// What [`Lowered::evaluate`] derives from one configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Evaluation {
    /// The worst verdict over the blocks; `Legal` without masks.
    pub(crate) legality: ConfigLegality,
    /// Whether the raw request has an unroll-jam factor of 16 or more.
    pub(crate) aggressive: bool,
    /// The clamped configuration's time, when a machine was given.
    pub(crate) ideal_time: Option<f64>,
}

/// A kernel's blocks in evaluator form.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    nests: Vec<Nest>,
}

/// One block's loop nest in table form.
#[derive(Debug, Clone)]
struct Nest {
    depth: usize,
    extents: [u64; MAX_DEPTH],
    /// Array reads and writes per iteration.
    reads: usize,
    writes: usize,
    /// Flop counts per iteration and the instruction estimate of the
    /// instruction-cache check, summed over the statements.
    adds_muls: f64,
    divs: f64,
    instrs_per_iter: f64,
    /// Share of the reads invariant in the innermost loop, which scalar
    /// replacement keeps in registers.
    replaced_fraction: f64,
    /// Every access is invariant or unit-stride in the innermost loop.
    vectorizable: bool,
    /// Per reference, in statement order (reads, then writes): bit `l` set
    /// when the reference varies with loop `l`.
    ref_varies: Vec<u8>,
    /// The referenced arrays, in declaration order.
    arrays: Vec<Array>,
}

/// One referenced array of a nest.
#[derive(Debug, Clone)]
struct Array {
    dims: [u64; MAX_DIMS],
    n_dims: usize,
    elem_bytes: u64,
    /// The distinct index rows of dimension `d` are
    /// `rows[starts[d]..starts[d + 1]]`.
    rows: Vec<Row>,
    starts: [usize; MAX_DIMS + 1],
    /// Bit `l`: some reference varies with loop `l`.
    touch: u8,
    /// Bit `l`: every reference moves with loop `l` in its last dimension
    /// only, by at most one element.
    unit_last: u8,
    /// Bit `l`: some reference has a unit coefficient of loop `l` in its
    /// last dimension.
    unit_stride: u8,
}

/// An affine index `Σ coeffs[l]·iter_l + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    offset: i64,
    coeffs: [i64; MAX_DEPTH],
}

/// One block's transformation decoded from levels: the stack form of
/// [`crate::BlockTransform`].
#[derive(Debug, Clone, Copy)]
struct Knobs {
    tiles: [(u64, u64); MAX_DEPTH],
    unroll: [u64; MAX_DEPTH],
    regtile: [u64; MAX_DEPTH],
    scalar_replace: bool,
    vectorize: bool,
}

impl Lowered {
    /// Lowers `blocks`.
    ///
    /// # Panics
    /// Panics if the blocks exceed the evaluator's fixed bounds: at most 4
    /// blocks, nests of 1 to 4 loops, at most 8 referenced arrays of 1 to 3
    /// dimensions each.
    pub(crate) fn new(blocks: &[BlockSpec]) -> Self {
        assert!(
            blocks.len() <= MAX_BLOCKS,
            "{} blocks, the evaluator takes at most {MAX_BLOCKS}",
            blocks.len()
        );
        Self {
            nests: blocks.iter().map(Nest::new).collect(),
        }
    }

    /// Evaluates in-range `levels`, whose knobs sit in `roles` order: the
    /// legality verdict against `masks` (the worst over the blocks; `Legal`
    /// without masks), whether the raw request is aggressive (an unroll-jam
    /// factor of 16 or more), and, when `machine` is given, the clamped
    /// configuration's time on it.
    pub(crate) fn evaluate(
        &self,
        roles: &[ParamRole],
        levels: &[u32],
        masks: Option<&[BlockLegality]>,
        machine: Option<&MachineModel>,
    ) -> Evaluation {
        // `Kernel::decode` through the parameter domains `Kernel::new`
        // declares; unroll-jam factors are 1..=31, so level l is l + 1.
        let mut knobs = [Knobs::IDENTITY; MAX_BLOCKS];
        let mut aggressive = false;
        for (role, &level) in roles.iter().zip(levels) {
            let level = level as usize;
            match *role {
                ParamRole::TileOuter { block, loop_idx } => {
                    knobs[block].tiles[loop_idx].0 = TILE_VALUES[level] as u64;
                }
                ParamRole::TileInner { block, loop_idx } => {
                    knobs[block].tiles[loop_idx].1 = TILE_VALUES[level] as u64;
                }
                ParamRole::Unroll { block, loop_idx } => {
                    let factor = level as u64 + 1;
                    aggressive |= factor >= 16;
                    knobs[block].unroll[loop_idx] = factor;
                }
                ParamRole::RegTile { block, loop_idx } => {
                    knobs[block].regtile[loop_idx] = REGTILE_VALUES[level] as u64;
                }
                ParamRole::ScalarReplace { block } => knobs[block].scalar_replace = level == 1,
                ParamRole::Vector { block } => knobs[block].vectorize = level == 1,
            }
        }
        let mut legality = ConfigLegality::Legal;
        let ideal_time = if masks.is_none() && machine.is_none() {
            None
        } else {
            let times = self
                .nests
                .iter()
                .zip(&mut knobs)
                .enumerate()
                .map(|(b, (nest, knobs))| {
                    if let Some(mask) = masks.map(|m| &m[b]) {
                        legality = legality.max(knobs.classify(mask, nest.depth));
                        knobs.clamp(mask, nest.depth);
                    }
                    machine.map_or(0.0, |m| nest.time(knobs, m))
                });
            let total: f64 = times.sum();
            machine.map(|_| total)
        };
        Evaluation {
            legality,
            aggressive,
            ideal_time,
        }
    }
}

impl Nest {
    fn new(block: &BlockSpec) -> Self {
        let nest = &block.nest;
        let depth = nest.depth();
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "block {}: {depth} loops, the evaluator takes 1 to {MAX_DEPTH}",
            block.label
        );
        let mut extents = [0; MAX_DEPTH];
        for (e, l) in extents.iter_mut().zip(&nest.loops) {
            *e = l.extent;
        }
        let refs = || {
            nest.stmts
                .iter()
                .flat_map(|s| s.reads.iter().chain(&s.writes))
        };
        let inner = depth - 1;
        let reads: usize = nest.stmts.iter().map(|s| s.reads.len()).sum();
        let writes: usize = nest.stmts.iter().map(|s| s.writes.len()).sum();
        // The expressions of `TransformedNest::scalar_replaced_read_fraction`
        // and `breakdown`, evaluated once.
        let invariant_reads = nest
            .stmts
            .iter()
            .flat_map(|s| &s.reads)
            .filter(|r| r.invariant_in(inner))
            .count();
        let replaced_fraction = if reads == 0 {
            0.0
        } else {
            invariant_reads as f64 / reads as f64
        };
        let adds_muls: f64 = nest.stmts.iter().map(|s| f64::from(s.adds + s.muls)).sum();
        let divs: f64 = nest.stmts.iter().map(|s| f64::from(s.divs)).sum();
        let instrs_per_iter = nest
            .stmts
            .iter()
            .map(|s| f64::from(s.adds + s.muls + s.divs) + (s.reads.len() + s.writes.len()) as f64)
            .sum::<f64>()
            + 2.0;
        let vectorizable = refs().all(|r| r.invariant_in(inner) || r.unit_stride_in(inner));
        let varies = |r: &crate::ir::ArrayRef| -> u8 {
            (0..depth)
                .filter(|&l| !r.invariant_in(l))
                .fold(0, |bits, l| bits | 1 << l)
        };
        let ref_varies = refs().map(varies).collect();
        let arrays: Vec<Array> = (0..nest.arrays.len())
            .filter(|&a| refs().any(|r| r.array == a))
            .map(|a| {
                let decl = &nest.arrays[a];
                let n_dims = decl.dims.len();
                assert!(
                    (1..=MAX_DIMS).contains(&n_dims),
                    "block {}: array {} has {n_dims} dimensions, the evaluator takes 1 to {MAX_DIMS}",
                    block.label,
                    decl.name
                );
                let array_refs = || refs().filter(move |r| r.array == a);
                let mut dims = [0; MAX_DIMS];
                dims[..n_dims].copy_from_slice(&decl.dims);
                let mut rows: Vec<Row> = Vec::new();
                let mut starts = [0; MAX_DIMS + 1];
                for d in 0..n_dims {
                    for r in array_refs() {
                        let e = &r.index[d];
                        let mut row = Row {
                            offset: e.offset,
                            coeffs: [0; MAX_DEPTH],
                        };
                        row.coeffs[..depth].copy_from_slice(&e.coeffs);
                        if !rows[starts[d]..].contains(&row) {
                            rows.push(row);
                        }
                    }
                    starts[d + 1] = rows.len();
                }
                let last = n_dims - 1;
                let mut touch = 0;
                let mut unit_last = 0;
                let mut unit_stride = 0;
                for l in 0..depth {
                    let bit = 1 << l;
                    if array_refs().any(|r| !r.invariant_in(l)) {
                        touch |= bit;
                    }
                    // The test of `cache::array_misses`.
                    if array_refs().all(|r| {
                        r.index.iter().enumerate().all(|(d, e)| {
                            if d == last {
                                e.coeffs[l].abs() <= 1
                            } else {
                                e.coeffs[l] == 0
                            }
                        })
                    }) {
                        unit_last |= bit;
                    }
                    if array_refs().any(|r| r.index[last].coeffs[l].abs() == 1) {
                        unit_stride |= bit;
                    }
                }
                Array {
                    dims,
                    n_dims,
                    elem_bytes: decl.elem_bytes,
                    rows,
                    starts,
                    touch,
                    unit_last,
                    unit_stride,
                }
            })
            .collect();
        assert!(
            arrays.len() <= MAX_ARRAYS,
            "block {}: {} referenced arrays, the evaluator takes at most {MAX_ARRAYS}",
            block.label,
            arrays.len()
        );
        Self {
            depth,
            extents,
            reads,
            writes,
            adds_muls,
            divs,
            instrs_per_iter,
            replaced_fraction,
            vectorizable,
            ref_varies,
            arrays,
        }
    }

    /// Seconds of the (clamped) `knobs` on `machine`: `estimate_time`.
    fn time(&self, knobs: &Knobs, machine: &MachineModel) -> f64 {
        let depth = self.depth;
        // apply: normalized tiles, then the tile-origin, inner-tile and
        // point bands.
        let mut eff_tiles = [(0u64, 0u64); MAX_DEPTH];
        for ((eff, &(t1, t2)), &extent) in eff_tiles
            .iter_mut()
            .zip(&knobs.tiles)
            .zip(&self.extents)
            .take(depth)
        {
            let outer = if t1 <= 1 { extent } else { t1.min(extent) };
            let inner = if t2 <= 1 { outer } else { t2.min(outer) };
            *eff = (outer, inner);
        }
        let mut orig = [0usize; MAX_LOOPS];
        let mut trip = [0u64; MAX_LOOPS];
        let mut n = 0;
        let mut push = |o: usize, t: u64| {
            orig[n] = o;
            trip[n] = t;
            n += 1;
        };
        for (l, (&(outer, _), &extent)) in eff_tiles[..depth].iter().zip(&self.extents).enumerate()
        {
            if outer < extent {
                push(l, extent.div_ceil(outer));
            }
        }
        for (l, &(outer, inner)) in eff_tiles[..depth].iter().enumerate() {
            if inner < outer {
                push(l, outer.div_ceil(inner));
            }
        }
        for (l, &(_, inner)) in eff_tiles[..depth].iter().enumerate() {
            push(l, inner);
        }
        let mut eff_unroll = [1u64; MAX_DEPTH];
        for l in 0..depth {
            eff_unroll[l] = (knobs.unroll[l] * knobs.regtile[l])
                .min(eff_tiles[l].1)
                .max(1);
        }
        // executions(p) for every p, and the inner range of every original
        // loop below every depth.
        let mut exec = [1.0f64; MAX_LOOPS + 1];
        for p in 0..n {
            exec[p + 1] = exec[p] * trip[p] as f64;
        }
        let iters = exec[n];
        let mut ranges = [[1u64; MAX_DEPTH]; MAX_LOOPS + 1];
        for p in (0..n).rev() {
            ranges[p] = ranges[p + 1];
            ranges[p][orig[p]] = ranges[p][orig[p]].saturating_mul(trip[p]);
        }

        // analyze: L1 accesses, then each level's misses, priced into
        // memory cycles as `breakdown` does.
        let replaced = if knobs.scalar_replace {
            self.replaced_fraction
        } else {
            0.0
        } * self.reads as f64;
        let l1_accesses = iters * (self.reads as f64 - replaced + self.writes as f64);
        let mut memo = LineMemo::new(machine.caches.first().map_or(0, |c| c.line));
        let mut memory_cycles = 0.0;
        let mut prev_total = f64::INFINITY;
        let n_levels = machine.caches.len();
        for (c, level) in machine.caches.iter().enumerate() {
            let line = level.line;
            if memo.line != line {
                memo = LineMemo::new(line);
            }
            let capacity = level.capacity as f64 * effective_capacity_fraction(level.ways);
            let mut chosen_depth = n;
            for d in (0..=n).rev() {
                if self.footprint(&mut memo, &ranges[d], d) <= capacity {
                    chosen_depth = d;
                } else {
                    break;
                }
            }
            let mut streaming = 0.0;
            let mut latency_bound = 0.0;
            for (a, array) in self.arrays.iter().enumerate() {
                // `cache::array_misses`: extend the boundary outward through
                // loops that leave the array resident or stream it.
                let mut d = chosen_depth;
                let mut extended_contig = false;
                while d > 0 {
                    let bit = 1 << orig[d - 1];
                    if array.touch & bit == 0 {
                        let (lines, _) = memo.lines(array, a, &ranges[d], d, depth);
                        if lines * line as f64 <= capacity {
                            d -= 1;
                            continue;
                        }
                        break;
                    }
                    if array.unit_last & bit != 0 {
                        extended_contig = true;
                        d -= 1;
                        continue;
                    }
                    break;
                }
                let (lines, contiguous) = memo.lines(array, a, &ranges[d], d, depth);
                let fetched = lines * exec[d];
                if contiguous || extended_contig {
                    streaming += fetched;
                } else {
                    latency_bound += fetched;
                }
            }
            // A lower level cannot see more traffic than the level above it.
            let total = streaming + latency_bound;
            if total > prev_total && total > 0.0 {
                let scale = prev_total / total;
                streaming *= scale;
                latency_bound *= scale;
            }
            prev_total = streaming + latency_bound;
            let next_lat = if c + 1 < n_levels {
                machine.caches[c + 1].latency
            } else {
                machine.memory_latency
            };
            let service = next_lat - level.latency;
            memory_cycles += latency_bound * service;
            let bw_cost = line as f64 / machine.memory_bandwidth;
            memory_cycles += streaming * bw_cost.max(service * 0.15);
        }

        // breakdown: flops, L1 accesses, loop overhead, spills.
        let mut flop_per_iter = self.adds_muls / machine.flops_per_cycle;
        flop_per_iter += self.divs * machine.div_latency * 0.75;
        let vectorized = knobs.vectorize && self.vectorizable;
        if vectorized {
            flop_per_iter /= machine.vector_width * machine.vector_efficiency;
        } else if knobs.vectorize {
            flop_per_iter *= 1.05;
        }
        let flop_cycles = flop_per_iter * iters;
        let mut access_cycles = l1_accesses * 0.5;
        if vectorized {
            access_cycles /= machine.vector_width;
        }
        let mut overhead_cycles = 0.0;
        for p in 0..n {
            let body_entries = exec[p] * trip[p] as f64;
            if p == n - 1 {
                overhead_cycles +=
                    body_entries * machine.loop_overhead / eff_unroll[depth - 1] as f64;
            } else {
                overhead_cycles += body_entries * machine.loop_overhead;
            }
        }
        let mut pressure = 0.0f64;
        let inner_bit = 1 << (depth - 1);
        for &varies in &self.ref_varies {
            let mut instances = 1.0f64;
            for (l, &u) in eff_unroll[..depth].iter().enumerate() {
                if u > 1 && varies & (1 << l) != 0 {
                    instances *= u as f64;
                }
            }
            if knobs.scalar_replace && varies & inner_bit == 0 {
                pressure += instances.max(1.0);
            } else {
                pressure += 0.5 * instances;
            }
        }
        let u_max = eff_unroll[..depth].iter().copied().max().unwrap_or(1) as f64;
        let u_total: f64 = eff_unroll[..depth].iter().map(|&u| u as f64).product();
        let registers = f64::from(machine.fp_registers);
        let mut spill_cycles = if pressure > registers {
            (pressure - registers) * machine.spill_penalty / u_max * iters
        } else {
            0.0
        };
        if u_total * self.instrs_per_iter > 8192.0 {
            spill_cycles += 1.5 * iters;
        }

        let total = flop_cycles + access_cycles + overhead_cycles + spill_cycles + memory_cycles;
        machine.cycles_to_seconds(total)
    }

    /// Bytes of every array's lines below depth `d`, whose inner ranges
    /// are `ranges`: `cache::total_footprint_bytes`.
    fn footprint(&self, memo: &mut LineMemo, ranges: &[u64; MAX_DEPTH], d: usize) -> f64 {
        if let Some(bytes) = memo.footprint[d] {
            return bytes;
        }
        let line = memo.line;
        let bytes = self
            .arrays
            .iter()
            .enumerate()
            .map(|(a, array)| memo.lines(array, a, ranges, d, self.depth).0 * line as f64)
            .sum();
        memo.footprint[d] = Some(bytes);
        bytes
    }
}

/// One block's cache-model values for one line size: each array's lines
/// and contiguity, and the total footprint, at each boundary depth.
struct LineMemo {
    line: u64,
    lines: [[Option<(f64, bool)>; MAX_LOOPS + 1]; MAX_ARRAYS],
    footprint: [Option<f64>; MAX_LOOPS + 1],
}

impl LineMemo {
    fn new(line: u64) -> Self {
        Self {
            line,
            lines: [[None; MAX_LOOPS + 1]; MAX_ARRAYS],
            footprint: [None; MAX_LOOPS + 1],
        }
    }

    /// `array` (the nest's `a`-th) at depth `d`, memoized.
    fn lines(
        &mut self,
        array: &Array,
        a: usize,
        ranges: &[u64; MAX_DEPTH],
        d: usize,
        depth: usize,
    ) -> (f64, bool) {
        *self.lines[a][d].get_or_insert_with(|| array.lines(ranges, depth, self.line))
    }
}

impl Array {
    /// Distinct lines touched under `ranges`, and whether the pattern is
    /// contiguous: `cache::array_lines`.
    fn lines(&self, ranges: &[u64; MAX_DEPTH], depth: usize, line: u64) -> (f64, bool) {
        let mut spans = [0u64; MAX_DIMS];
        for (d, span_d) in spans[..self.n_dims].iter_mut().enumerate() {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for row in &self.rows[self.starts[d]..self.starts[d + 1]] {
                let mut min_v = row.offset;
                let mut max_v = row.offset;
                for (&c, &range) in row.coeffs[..depth].iter().zip(ranges) {
                    let reach = c.saturating_mul(range as i64 - 1);
                    if c >= 0 {
                        max_v = max_v.saturating_add(reach);
                    } else {
                        min_v = min_v.saturating_add(reach);
                    }
                }
                lo = lo.min(min_v);
                hi = hi.max(max_v);
            }
            let span = (hi - lo + 1).max(1) as u64;
            *span_d = span.min(self.dims[d]);
        }
        let last = self.n_dims - 1;
        let contiguous = (0..depth).any(|l| self.unit_stride & (1 << l) != 0 && ranges[l] > 1)
            || spans[last] * self.elem_bytes >= line;
        let last_span_bytes = spans[last] * self.elem_bytes;
        let outer: f64 = spans[..last].iter().map(|&s| s as f64).product();
        let lines = if contiguous {
            outer * (last_span_bytes as f64 / line as f64).ceil()
        } else {
            outer * spans[last] as f64
        };
        (lines.max(1.0), contiguous)
    }
}

impl Knobs {
    /// [`crate::BlockTransform::identity`].
    const IDENTITY: Self = Self {
        tiles: [(1, 1); MAX_DEPTH],
        unroll: [1; MAX_DEPTH],
        regtile: [1; MAX_DEPTH],
        scalar_replace: false,
        vectorize: false,
    };

    /// [`BlockLegality::classify`] of the raw request.
    fn classify(&self, mask: &BlockLegality, depth: usize) -> ConfigLegality {
        for l in 0..depth {
            let tiled = self.tiles[l].0 > 1 || self.tiles[l].1 > 1;
            if (tiled && !mask.tile_ok[l])
                || (self.unroll[l] > 1 && !mask.unroll_ok[l])
                || (self.regtile[l] > 1 && !mask.regtile_ok[l])
            {
                return ConfigLegality::Illegal;
            }
        }
        if (self.scalar_replace && !mask.scalar_replace_ok)
            || (self.vectorize && !mask.vectorize_ok)
        {
            return ConfigLegality::Illegal;
        }
        if self.vectorize && !mask.vectorize_clean {
            return ConfigLegality::Flagged;
        }
        ConfigLegality::Legal
    }

    /// [`BlockLegality::clamp`], in place.
    fn clamp(&mut self, mask: &BlockLegality, depth: usize) {
        for l in 0..depth {
            if !mask.tile_ok[l] {
                self.tiles[l] = (1, 1);
            }
            if !mask.unroll_ok[l] {
                self.unroll[l] = 1;
            }
            if !mask.regtile_ok[l] {
                self.regtile[l] = 1;
            }
        }
        self.scalar_replace &= mask.scalar_replace_ok;
        self.vectorize &= mask.vectorize_ok;
    }
}
