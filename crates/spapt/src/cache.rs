//! Analytical multi-level cache-miss model.
//!
//! Classic capacity/footprint reasoning, the same family of models used by
//! ATLAS-style tile selectors: for each cache level, find the largest
//! subnest of the (tiled) loop nest whose combined data footprint fits in the
//! cache; every execution of that subnest then touches its lines exactly
//! once, so
//!
//! ```text
//! misses(level) = executions(subnest) × lines-touched-per-execution
//! ```
//!
//! Footprints come from the affine index expressions: the span of every array
//! dimension under the loop ranges active inside the subnest.

use crate::ir::{ArrayRef, LoopNest};
use crate::machine::MachineModel;
use crate::transform::TransformedNest;

/// Per-level miss traffic, split by access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelMisses {
    /// Line fetches with contiguous (prefetchable, bandwidth-bound) pattern.
    pub streaming: f64,
    /// Line fetches with strided/scattered (latency-bound) pattern.
    pub latency_bound: f64,
}

impl LevelMisses {
    /// Total line fetches at this level.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.streaming + self.latency_bound
    }
}

/// Cache traffic of one transformed nest.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Total L1 data accesses (loads + stores) over the whole nest.
    pub l1_accesses: f64,
    /// Per cache level, the lines fetched *into* that level.
    pub level_misses: Vec<LevelMisses>,
}

/// Analyzes the cache traffic of `t` (a transformation of `nest`) on
/// `machine`.
#[must_use]
pub fn analyze(nest: &LoopNest, t: &TransformedNest, machine: &MachineModel) -> TrafficReport {
    let n_orig = nest.depth();
    let n_loops = t.loops.len();
    let iters = t.iterations();

    // L1 accesses: every read/write per iteration, minus scalar-replaced
    // loads.
    let reads_per_iter: usize = nest.stmts.iter().map(|s| s.reads.len()).sum();
    let writes_per_iter: usize = nest.stmts.iter().map(|s| s.writes.len()).sum();
    let replaced = t.scalar_replaced_read_fraction(nest) * reads_per_iter as f64;
    let l1_accesses = iters * (reads_per_iter as f64 - replaced + writes_per_iter as f64);

    // For each level: deepest boundary depth whose subnest footprint fits.
    let mut level_misses = Vec::with_capacity(machine.caches.len());
    let mut prev_total = f64::INFINITY; // enforce monotone misses
    for level in &machine.caches {
        let mut chosen_depth = n_loops; // empty subnest always "fits"
        for depth in (0..=n_loops).rev() {
            let ranges = t.inner_ranges(depth, n_orig);
            let bytes = total_footprint_bytes(nest, &ranges, level.line);
            if bytes <= level.capacity as f64 * effective_capacity_fraction(level.ways) {
                chosen_depth = depth;
            } else {
                break; // footprints grow monotonically as depth decreases
            }
        }
        let mut misses = LevelMisses::default();
        let capacity = level.capacity as f64 * effective_capacity_fraction(level.ways);
        for array in unique_arrays(nest) {
            let (fetched, contiguous) =
                array_misses(nest, t, array, chosen_depth, n_orig, level.line, capacity);
            if contiguous {
                misses.streaming += fetched;
            } else {
                misses.latency_bound += fetched;
            }
        }
        // A lower level cannot see more traffic than the level above it.
        let total = misses.total();
        if total > prev_total && total > 0.0 {
            let scale = prev_total / total;
            misses.streaming *= scale;
            misses.latency_bound *= scale;
        }
        prev_total = misses.total();
        level_misses.push(misses);
    }

    TrafficReport {
        l1_accesses,
        level_misses,
    }
}

/// Fraction of nominal capacity usable before conflict misses dominate;
/// low-associativity caches hold less of a multi-array working set.
pub(crate) fn effective_capacity_fraction(ways: u32) -> f64 {
    match ways {
        0..=1 => 0.4,
        2..=4 => 0.6,
        5..=8 => 0.75,
        _ => 0.85,
    }
}

fn unique_arrays(nest: &LoopNest) -> impl Iterator<Item = usize> + '_ {
    (0..nest.arrays.len()).filter(|&a| {
        nest.stmts
            .iter()
            .any(|s| s.reads.iter().chain(&s.writes).any(|r| r.array == a))
    })
}

/// Footprint of all arrays, in bytes, rounded up to whole lines per array.
fn total_footprint_bytes(nest: &LoopNest, ranges: &[u64], line: u64) -> f64 {
    unique_arrays(nest)
        .map(|a| {
            let (lines, _) = array_lines(nest, a, ranges, line);
            lines * line as f64
        })
        .sum()
}

/// Total line fetches of one array at a given cache level, accounting for
/// reuse *across* executions of the capacity-fitting subnest.
///
/// Starting from the deepest subnest whose total footprint fits
/// (`chosen_depth`), the boundary is extended upward per array through loops
/// that
///
/// - do not touch the array at all (pure reuse — the resident lines are hit
///   again, e.g. `A[i][k]` across the `j` loop of MM), provided the array's
///   own footprint fits in the cache, or
/// - advance only the last dimension with unit stride (successive
///   executions share cache lines — e.g. `B[k][j]` across `j`, or a 1-D
///   stream across its own loop).
///
/// Misses are then `executions(extended depth) × lines(extended ranges)`.
fn array_misses(
    nest: &LoopNest,
    t: &TransformedNest,
    array: usize,
    chosen_depth: usize,
    n_orig: usize,
    line: u64,
    capacity: f64,
) -> (f64, bool) {
    let mut depth = chosen_depth;
    let mut extended_contig = false;
    while depth > 0 {
        let outer = t.loops[depth - 1];
        let refs_touch = nest.stmts.iter().any(|s| {
            s.reads
                .iter()
                .chain(&s.writes)
                .any(|r| r.array == array && !r.invariant_in(outer.orig))
        });
        if !refs_touch {
            // Invariant loop: reuse is free only if this array's resident
            // footprint survives the other arrays' traffic.
            let ranges = t.inner_ranges(depth, n_orig);
            let (lines, _) = array_lines(nest, array, &ranges, line);
            if lines * line as f64 <= capacity {
                depth -= 1;
                continue;
            }
            break;
        }
        // Does this loop advance only the last dimension, unit-stride?
        let unit_last = nest.stmts.iter().all(|s| {
            s.reads
                .iter()
                .chain(&s.writes)
                .filter(|r| r.array == array)
                .all(|r| {
                    let last = r.index.len() - 1;
                    r.index.iter().enumerate().all(|(d, e)| {
                        if d == last {
                            e.coeffs[outer.orig].abs() <= 1
                        } else {
                            e.coeffs[outer.orig] == 0
                        }
                    })
                })
        });
        if unit_last {
            extended_contig = true;
            depth -= 1;
            continue;
        }
        break;
    }
    let ranges = t.inner_ranges(depth, n_orig);
    let (lines, contiguous) = array_lines(nest, array, &ranges, line);
    (lines * t.executions(depth), contiguous || extended_contig)
}

/// Distinct cache lines of `array` touched under the given per-loop ranges,
/// plus whether the access pattern is contiguous in memory.
///
/// The span of each array dimension is the value range of its affine index
/// across all references and all loop positions inside the ranges.
fn array_lines(nest: &LoopNest, array: usize, ranges: &[u64], line: u64) -> (f64, bool) {
    let decl = &nest.arrays[array];
    let refs: Vec<&ArrayRef> = nest
        .stmts
        .iter()
        .flat_map(|s| s.reads.iter().chain(&s.writes))
        .filter(|r| r.array == array)
        .collect();
    if refs.is_empty() {
        return (0.0, true);
    }
    let n_dims = decl.dims.len();
    let mut spans = Vec::with_capacity(n_dims);
    for d in 0..n_dims {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for r in &refs {
            let e = &r.index[d];
            let mut min_v = e.offset;
            let mut max_v = e.offset;
            for (l, &c) in e.coeffs.iter().enumerate() {
                let reach = c.saturating_mul(ranges[l] as i64 - 1);
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
        spans.push(span.min(decl.dims[d]));
    }

    // Contiguity: the fastest-varying dimension must be walked densely by
    // some loop with range > 1 (unit-stride coefficient).
    let last = n_dims - 1;
    let contiguous = refs.iter().any(|r| {
        r.index[last]
            .coeffs
            .iter()
            .enumerate()
            .any(|(l, &c)| c.abs() == 1 && ranges[l] > 1)
    }) || spans[last] * decl.elem_bytes >= line;

    let last_span_bytes = spans[last] * decl.elem_bytes;
    let outer: f64 = spans[..last].iter().map(|&s| s as f64).product();
    let lines = if contiguous {
        outer * (last_span_bytes as f64 / line as f64).ceil()
    } else {
        // Sparse in the last dimension: every element risks its own line.
        outer * spans[last] as f64
    };
    (lines.max(1.0), contiguous)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ArrayDecl, ArrayRef, LinIndex, LoopDim, LoopNest, Statement};
    use crate::transform::{apply, BlockTransform};

    /// Simple 1-D streaming kernel: y[i] = a[i] + b[i].
    fn stream_nest(n: u64) -> LoopNest {
        LoopNest {
            loops: vec![LoopDim {
                name: "i".into(),
                extent: n,
            }],
            stmts: vec![Statement {
                reads: vec![
                    ArrayRef::new(0, vec![LinIndex::var(1, 0)]),
                    ArrayRef::new(1, vec![LinIndex::var(1, 0)]),
                ],
                writes: vec![ArrayRef::new(2, vec![LinIndex::var(1, 0)])],
                adds: 1,
                muls: 0,
                divs: 0,
            }],
            arrays: vec![
                ArrayDecl::doubles("a", vec![n]),
                ArrayDecl::doubles("b", vec![n]),
                ArrayDecl::doubles("y", vec![n]),
            ],
        }
    }

    fn mm_nest(n: u64) -> LoopNest {
        let nl = 3;
        LoopNest {
            loops: vec![
                LoopDim {
                    name: "i".into(),
                    extent: n,
                },
                LoopDim {
                    name: "j".into(),
                    extent: n,
                },
                LoopDim {
                    name: "k".into(),
                    extent: n,
                },
            ],
            stmts: vec![Statement {
                reads: vec![
                    ArrayRef::new(0, vec![LinIndex::var(nl, 0), LinIndex::var(nl, 2)]),
                    ArrayRef::new(1, vec![LinIndex::var(nl, 2), LinIndex::var(nl, 1)]),
                    ArrayRef::new(2, vec![LinIndex::var(nl, 0), LinIndex::var(nl, 1)]),
                ],
                writes: vec![ArrayRef::new(
                    2,
                    vec![LinIndex::var(nl, 0), LinIndex::var(nl, 1)],
                )],
                adds: 1,
                muls: 1,
                divs: 0,
            }],
            arrays: vec![
                ArrayDecl::doubles("A", vec![n, n]),
                ArrayDecl::doubles("B", vec![n, n]),
                ArrayDecl::doubles("C", vec![n, n]),
            ],
        }
    }

    #[test]
    fn streaming_kernel_misses_match_compulsory_lines() {
        let n = 1 << 20; // 8 MB per array: exceeds L1/L2, fits nothing twice
        let nest = stream_nest(n);
        let t = apply(&nest, &BlockTransform::identity(1));
        let m = MachineModel::platform_a();
        let report = analyze(&nest, &t, &m);
        assert_eq!(report.l1_accesses, 3.0 * n as f64);
        // Compulsory misses: 3 arrays × n/8 lines, at every level.
        let expected = 3.0 * n as f64 / 8.0;
        for lvl in &report.level_misses {
            assert!(lvl.latency_bound == 0.0, "stream must be contiguous");
            assert!(
                (lvl.streaming - expected).abs() / expected < 0.01,
                "misses {} vs {}",
                lvl.streaming,
                expected
            );
        }
    }

    #[test]
    fn tiny_working_set_stays_in_l1() {
        let nest = stream_nest(64); // 512 B per array
        let t = apply(&nest, &BlockTransform::identity(1));
        let report = analyze(&nest, &t, &MachineModel::platform_a());
        // One cold sweep: 8 lines per array.
        assert!(report.level_misses[0].total() <= 3.0 * 8.0 + 1.0);
    }

    #[test]
    fn tiling_reduces_mm_misses() {
        let n = 512; // 3 arrays × 2 MB
        let nest = mm_nest(n);
        let m = MachineModel::platform_a();
        let untiled = apply(&nest, &BlockTransform::identity(3));
        let mut p = BlockTransform::identity(3);
        p.tiles = vec![(1, 64), (1, 64), (1, 64)]; // classic L1/L2 blocking
        let tiled = apply(&nest, &p);
        let misses_untiled: f64 = analyze(&nest, &untiled, &m)
            .level_misses
            .iter()
            .map(LevelMisses::total)
            .sum();
        let misses_tiled: f64 = analyze(&nest, &tiled, &m)
            .level_misses
            .iter()
            .map(LevelMisses::total)
            .sum();
        assert!(
            misses_tiled < misses_untiled / 2.0,
            "tiling should cut misses strongly: {misses_tiled} vs {misses_untiled}"
        );
    }

    #[test]
    fn misses_are_monotone_down_the_hierarchy() {
        let nest = mm_nest(256);
        let m = MachineModel::platform_a();
        for tiles in [
            vec![(1u64, 1u64), (1, 1), (1, 1)],
            vec![(128, 16), (128, 16), (1, 1)],
            vec![(1, 8), (1, 8), (1, 8)],
        ] {
            let mut p = BlockTransform::identity(3);
            p.tiles = tiles;
            let t = apply(&nest, &p);
            let r = analyze(&nest, &t, &m);
            for w in r.level_misses.windows(2) {
                assert!(
                    w[1].total() <= w[0].total() + 1e-6,
                    "level misses must not grow downward: {:?}",
                    r.level_misses
                );
            }
            // L1 misses cannot exceed accesses.
            assert!(r.level_misses[0].total() <= r.l1_accesses);
        }
    }

    #[test]
    fn scalar_replacement_reduces_l1_accesses() {
        let nest = mm_nest(128);
        let mut p = BlockTransform::identity(3);
        p.scalar_replace = true;
        let on = apply(&nest, &p);
        let off = apply(&nest, &BlockTransform::identity(3));
        let m = MachineModel::platform_a();
        assert!(analyze(&nest, &on, &m).l1_accesses < analyze(&nest, &off, &m).l1_accesses);
    }
}
