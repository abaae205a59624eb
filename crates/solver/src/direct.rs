//! The DIRECT (DIviding RECTangles) global optimization algorithm
//! (Jones et al.), used by the paper via the Tomlab solver library (§5–6)
//! and implemented here from scratch.
//!
//! DIRECT minimizes a black-box function over a box by maintaining a set
//! of hyperrectangles, each evaluated at its center. Every iteration it
//! selects the *potentially optimal* rectangles — the lower convex hull of
//! (diameter, f) — and trisects them along their longest sides. The `ε`
//! parameter trades global exploration against local refinement: this is
//! the knob §6 tunes ("a parameter of DIRECT that determines the ratio of
//! time spent in local versus global search").
//!
//! Selection costs O(diameter classes), not O(rectangles): every
//! rectangle is filed in a min-heap of `(f, index)` under its diameter
//! class (`ClassHeaps`), so a class's best rectangle is its heap's top.
//! A divided rectangle shrinks into another class and is filed there
//! again; the entry it leaves behind is dropped when it surfaces. The
//! rectangles picked are exactly those a scan over all of them picks
//! (minimum `f`, lowest index on ties): the scan is the tests' reference.
//!
//! Bookkeeping allocates nothing per rectangle or per sample: rectangles
//! are rows of flat arrays (`Rects`), a child copies its parent's row and
//! moves one coordinate, and a sample patches one probe point in place. A
//! half-diagonal sums squared sides from a table of the `powi` values it
//! once computed per call (`SideSquares`), so every `d` keeps its bits.
//!
//! The search is fully deterministic. `search` runs it to seed problems
//! of at most a dozen free slots, and as §7.5's raw comparator.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Configuration for a DIRECT run.
#[derive(Debug, Clone, Copy)]
pub struct DirectConfig {
    /// Evaluation budget.
    pub max_evals: usize,
    /// Iteration (division round) budget.
    pub max_iters: usize,
    /// Jones' ε: minimum non-trivial improvement, relative to |f_min|.
    /// Larger values bias toward large rectangles (global search).
    pub epsilon: f64,
    /// Stop as soon as a value below this is found (used by the K′
    /// binary search to bail out once feasibility is proven).
    pub stop_below: Option<f64>,
}

impl Default for DirectConfig {
    fn default() -> DirectConfig {
        DirectConfig {
            max_evals: 20_000,
            max_iters: 1_000,
            epsilon: 1e-4,
            stop_below: None,
        }
    }
}

/// Result of a DIRECT run.
#[derive(Debug, Clone)]
pub struct DirectResult {
    /// Best point found, in the unit cube.
    pub best_x: Vec<f64>,
    pub best_f: f64,
    pub evals: usize,
    pub iterations: usize,
}

/// Rectangle `i`: centre `centres[i * dims..][..dims]`, trisections per
/// dimension `levels[i * dims..][..dims]` (side 3^-level), value `f[i]`,
/// half-diagonal (size) `d[i]`.
struct Rects {
    centres: Vec<f64>,
    levels: Vec<u16>,
    f: Vec<f64>,
    d: Vec<f64>,
}

/// `(3^-l)²` per level `l`, each the `powi` call it stands for, made at run
/// time (`black_box`: never constant-folded into other bits); the table
/// grows a level at a time as the search goes deeper.
#[derive(Default)]
struct SideSquares(Vec<f64>);

impl SideSquares {
    /// Make sure `level` has an entry.
    fn cover(&mut self, level: u16) {
        while self.0.len() <= level as usize {
            let l = self.0.len() as i32;
            self.0.push(3f64.powi(std::hint::black_box(-2 * l)));
        }
    }

    fn half_diagonal(&self, levels: &[u16]) -> f64 {
        let sum: f64 = levels.iter().map(|&l| self.0[l as usize]).sum();
        0.5 * sum.sqrt()
    }
}

/// Diameter class of a rectangle: `d` quantized, so that the same side
/// lengths summed in another order land in one class. Ascending in `d`.
fn class_of(d: f64) -> u64 {
    (d * 1e12).round() as u64
}

/// `f` as an integer that orders as `f` does (no NaN; `-0.0` as `0.0`, as
/// `<` has them), so that `(f, index)` is a heap key.
fn ordered_bits(f: f64) -> i64 {
    let bits = (f + 0.0).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One min-heap of `(f, index)` per diameter class. An entry is live while
/// its rectangle is still of the heap's class; a rectangle only ever
/// shrinks, so it never returns to a class it left.
#[derive(Default)]
struct ClassHeaps {
    classes: BTreeMap<u64, BinaryHeap<Reverse<(i64, usize)>>>,
}

impl ClassHeaps {
    /// Rectangle `index` is new, or has just changed diameter.
    fn file(&mut self, rects: &Rects, index: usize) {
        let heap = self.classes.entry(class_of(rects.d[index])).or_default();
        heap.push(Reverse((ordered_bits(rects.f[index]), index)));
    }

    /// Into `best`, per class in ascending diameter, `(d, index)` of its
    /// rectangle with the least `f`, the lowest index among equals.
    fn best_per_class(&mut self, rects: &Rects, best: &mut Vec<(f64, usize)>) {
        best.clear();
        self.classes.retain(|&class, heap| {
            while let Some(&Reverse((_, index))) = heap.peek() {
                let d = rects.d[index];
                if class_of(d) == class {
                    best.push((d, index));
                    return true;
                }
                heap.pop();
            }
            false
        });
    }
}

/// Minimize `f` over the unit cube `[0,1]^dims`.
pub fn direct_minimize(
    dims: usize,
    cfg: &DirectConfig,
    mut f: impl FnMut(&[f64]) -> f64,
) -> DirectResult {
    minimize_selecting(dims, cfg, &mut f, ClassHeaps::best_per_class)
}

/// DIRECT, reading each class's best rectangle through `best_per_class`
/// (a parameter so that tests can run the search over the scan).
fn minimize_selecting(
    dims: usize,
    cfg: &DirectConfig,
    f: &mut impl FnMut(&[f64]) -> f64,
    mut best_per_class: impl FnMut(&mut ClassHeaps, &Rects, &mut Vec<(f64, usize)>),
) -> DirectResult {
    assert!(dims > 0, "need at least one dimension");
    // The one point every sample is taken at: a centre, patched in place.
    let mut probe = vec![0.5; dims];
    let f0 = f(&probe);
    let mut evals = 1usize;
    let mut squares = SideSquares::default();
    squares.cover(0);
    let mut rects = Rects {
        centres: probe.clone(),
        levels: vec![0; dims],
        f: vec![f0],
        d: Vec::new(),
    };
    rects.d.push(squares.half_diagonal(&rects.levels));
    let mut heaps = ClassHeaps::default();
    heaps.file(&rects, 0);
    let mut best_f = f0;
    let mut best_x = probe.clone();
    let mut iterations = 0usize;
    // Reused by every iteration and division.
    let (mut best, mut hull, mut selected) = (Vec::new(), Vec::new(), Vec::new());
    let (mut long_dims, mut samples) = (Vec::new(), Vec::new());

    let stop_hit = |best: f64| cfg.stop_below.is_some_and(|s| best < s);

    // A division needs at least two evaluations; with fewer left the
    // search cannot make progress.
    'outer: while iterations < cfg.max_iters && evals + 2 <= cfg.max_evals && !stop_hit(best_f) {
        iterations += 1;
        best_per_class(&mut heaps, &rects, &mut best);
        potentially_optimal(
            &rects.f,
            &best,
            best_f,
            cfg.epsilon,
            &mut hull,
            &mut selected,
        );
        if selected.is_empty() {
            break;
        }
        // Largest index first; a division only appends rectangles.
        for &ri in selected.iter().rev() {
            if evals >= cfg.max_evals || stop_hit(best_f) {
                break 'outer;
            }
            // Longest sides = dimensions at the minimum level.
            let row = ri * dims;
            let levels = &rects.levels[row..row + dims];
            let min_level = *levels.iter().min().expect("non-empty");
            long_dims.clear();
            long_dims.extend((0..dims).filter(|&i| levels[i] == min_level));
            let delta = 3f64.powi(-(min_level as i32 + 1));

            // Sample c ± δ e_i for every long dimension:
            // (dimension, f(c−δ), f(c+δ), c_i−δ, c_i+δ).
            samples.clear();
            probe.copy_from_slice(&rects.centres[row..row + dims]);
            for &i in &long_dims {
                if evals + 2 > cfg.max_evals {
                    break;
                }
                let c = probe[i];
                let (lo, hi) = ((c - delta).clamp(0.0, 1.0), (c + delta).clamp(0.0, 1.0));
                let mut sample = |x: f64| {
                    probe[i] = x;
                    let fx = f(&probe);
                    if fx < best_f {
                        best_f = fx;
                        best_x.copy_from_slice(&probe);
                    }
                    fx
                };
                let (f_lo, f_hi) = (sample(lo), sample(hi));
                probe[i] = c;
                evals += 2;
                samples.push((i, f_lo, f_hi, lo, hi));
            }
            if samples.is_empty() {
                continue;
            }
            // Divide in order of best sample value (Jones' rule), ties in
            // dimension order.
            samples.sort_unstable_by(|a, b| {
                a.1.min(a.2)
                    .partial_cmp(&b.1.min(b.2))
                    .expect("NaN objective")
                    .then(a.0.cmp(&b.0))
            });
            let mut d = rects.d[ri];
            for &(i, f_lo, f_hi, lo, hi) in &samples {
                rects.levels[row + i] += 1;
                squares.cover(rects.levels[row + i]);
                d = squares.half_diagonal(&rects.levels[row..row + dims]);
                // Each child: the parent's row, its `i` coordinate moved.
                for (x, fx) in [(lo, f_lo), (hi, f_hi)] {
                    let child = rects.f.len();
                    rects.centres.extend_from_within(row..row + dims);
                    rects.centres[child * dims + i] = x;
                    rects.levels.extend_from_within(row..row + dims);
                    rects.f.push(fx);
                    rects.d.push(d);
                    heaps.file(&rects, child);
                }
            }
            rects.d[ri] = d;
            heaps.file(&rects, ri);
        }
    }

    DirectResult {
        best_x,
        best_f,
        evals,
        iterations,
    }
}

/// Into `out`, the indices of potentially-optimal rectangles: the
/// lower-right convex hull (built in `hull`) of (d, f) over each diameter
/// class's best rectangle (`best_per_class`, ascending `d`), ε-filtered.
fn potentially_optimal(
    f: &[f64],
    best_per_class: &[(f64, usize)],
    f_min: f64,
    epsilon: f64,
    hull: &mut Vec<(f64, usize)>,
    out: &mut Vec<usize>,
) {
    // Lower convex hull over ascending d.
    hull.clear();
    for &(d, i) in best_per_class {
        let fi = f[i];
        while hull.len() >= 2 {
            let (d1, i1) = hull[hull.len() - 2];
            let (d2, i2) = hull[hull.len() - 1];
            let (f1, f2) = (f[i1], f[i2]);
            // Remove i2 if it lies above segment (d1,f1)-(d,fi).
            let cross = (d2 - d1) * (fi - f1) - (f2 - f1) * (d - d1);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        // Also drop dominated points (same or larger f at smaller d handled
        // by hull; equal d handled above).
        hull.push((d, i));
    }

    // Keep only the ascending-f tail from the global minimum onward
    // (smaller rectangles with worse f than a larger one are never
    // potentially optimal), then ε-filter.
    out.clear();
    let n = hull.len();
    for (pos, &(d, i)) in hull.iter().enumerate() {
        let fi = f[i];
        // Must be no larger-d hull point with smaller-or-equal f.
        if hull[pos + 1..].iter().any(|&(_, j)| f[j] <= fi) && f[hull[n - 1].1] < fi {
            continue;
        }
        // ε-condition against the right neighbour's slope.
        if pos + 1 < n {
            let (d2, j) = hull[pos + 1];
            let slope = (f[j] - fi) / (d2 - d);
            let reachable = fi - slope * d;
            if reachable > f_min - epsilon * f_min.abs() {
                continue;
            }
        }
        out.push(i);
    }
    if out.is_empty() && !hull.is_empty() {
        // Always divide at least the largest rectangle.
        out.push(hull[n - 1].1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_types::SplitMix64;

    /// The selection [`ClassHeaps`] replaced — one pass over every
    /// rectangle per call — kept as its reference.
    fn scan(rects: &Rects) -> Vec<(f64, usize)> {
        let mut by_class: std::collections::HashMap<u64, usize> = Default::default();
        for (i, (&f, &d)) in rects.f.iter().zip(&rects.d).enumerate() {
            by_class
                .entry(class_of(d))
                .and_modify(|bi| {
                    if f < rects.f[*bi] {
                        *bi = i;
                    }
                })
                .or_insert(i);
        }
        let mut best: Vec<(f64, usize)> = by_class.into_values().map(|i| (rects.d[i], i)).collect();
        best.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN diameter"));
        best
    }

    #[test]
    fn side_squares_are_the_powi_they_replace() {
        // Past the underflow to zero (3^-800 < f64::MIN_POSITIVE).
        let mut squares = SideSquares::default();
        squares.cover(400);
        for l in 0..=400i32 {
            let direct = 3f64.powi(std::hint::black_box(-2 * l));
            assert_eq!(
                squares.0[l as usize].to_bits(),
                direct.to_bits(),
                "level {l}"
            );
        }
        assert_eq!(squares.0[400], 0.0);
    }

    #[test]
    fn heaps_track_the_scan_through_ties_and_reclassing() {
        // Five values of `f`, signed zeros among them, and level multisets
        // that repeat in another order: ties in `f`, ties in `d`, and
        // classes that hold one diameter under two bit patterns.
        let mut rng = SplitMix64::from_env(0xD1_EC7);
        let mut selected = 0usize;
        for _ in 0..40 {
            let dims = 2 + rng.next_range(3) as usize;
            let mut heaps = ClassHeaps::default();
            let mut squares = SideSquares::default();
            squares.cover(256);
            let mut rects = Rects {
                centres: Vec::new(),
                levels: Vec::new(),
                f: Vec::new(),
                d: Vec::new(),
            };
            let (mut best, mut hull, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for step in 0..200 {
                let i = if rects.f.is_empty() || rng.next_range(3) > 0 {
                    let levels: Vec<u16> = (0..dims).map(|_| rng.next_range(4) as u16).collect();
                    rects.centres.extend(std::iter::repeat_n(0.5, dims));
                    rects.d.push(squares.half_diagonal(&levels));
                    rects.levels.extend(levels);
                    rects
                        .f
                        .push([-0.5, -0.0, 0.0, 0.25, 1.0][rng.next_range(5) as usize]);
                    rects.f.len() - 1
                } else {
                    // Divide: a rectangle shrinks into another class.
                    let i = rng.next_range(rects.f.len() as u64) as usize;
                    rects.levels[i * dims + rng.next_range(dims as u64) as usize] += 1;
                    rects.d[i] = squares.half_diagonal(&rects.levels[i * dims..][..dims]);
                    i
                };
                heaps.file(&rects, i);
                if step % 3 == 0 {
                    heaps.best_per_class(&rects, &mut best);
                    assert_eq!(best, scan(&rects));
                    potentially_optimal(&rects.f, &best, -0.5, 1e-4, &mut hull, &mut out);
                    selected += out.len();
                }
            }
        }
        assert!(selected > 1000, "{selected} rectangles selected");
    }

    /// DIRECT over `f`, twice: over the scan, with the heaps held to its
    /// answer at every iteration, and over the heaps. Same run, bit for bit.
    fn run(dims: usize, evals: usize, mut f: impl FnMut(&[f64]) -> f64) -> DirectResult {
        let cfg = DirectConfig {
            max_evals: evals,
            ..Default::default()
        };
        let by_scan = minimize_selecting(dims, &cfg, &mut f, |heaps, rects, best| {
            heaps.best_per_class(rects, best);
            let scanned = scan(rects);
            assert_eq!(*best, scanned);
            *best = scanned;
        });
        let by_heaps = direct_minimize(dims, &cfg, f);
        let told = |r: &DirectResult| {
            let x: Vec<u64> = r.best_x.iter().map(|v| v.to_bits()).collect();
            (x, r.best_f.to_bits(), r.evals, r.iterations)
        };
        assert_eq!(told(&by_heaps), told(&by_scan));
        by_heaps
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = run(2, 2000, |x| (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2));
        assert!(r.best_f < 1e-4, "best {}", r.best_f);
        assert!((r.best_x[0] - 0.3).abs() < 0.02);
        assert!((r.best_x[1] - 0.7).abs() < 0.02);
    }

    #[test]
    fn escapes_local_minima_rastrigin() {
        // Rastrigin scaled to [0,1]^2, global minimum at x = 0.5.
        let r = run(2, 6000, |x| {
            let a = 10.0;
            let n = 2.0;
            let mut sum = a * n;
            for &xi in x {
                let z = (xi - 0.5) * 8.0;
                sum += z * z - a * (2.0 * std::f64::consts::PI * z).cos();
            }
            sum
        });
        assert!(r.best_f < 1.0, "best {}", r.best_f);
    }

    #[test]
    fn handles_step_functions() {
        // Piecewise-constant (like floor-decoded assignments): min plateau
        // at x in [0.6, 0.8).
        let r = run(1, 500, |x| {
            let b = (x[0] * 5.0).floor();
            if b == 3.0 {
                0.0
            } else {
                (b - 3.0).abs()
            }
        });
        assert_eq!(r.best_f, 0.0);
        assert!((0.6..0.8).contains(&r.best_x[0]));
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let r = direct_minimize(
            3,
            &DirectConfig {
                max_evals: 100,
                ..Default::default()
            },
            |x| {
                count += 1;
                x.iter().sum()
            },
        );
        assert!(count <= 100);
        assert_eq!(r.evals, count);
    }

    #[test]
    fn stop_below_short_circuits() {
        let mut count = 0usize;
        let r = direct_minimize(
            2,
            &DirectConfig {
                max_evals: 100_000,
                stop_below: Some(0.5),
                ..Default::default()
            },
            |x| {
                count += 1;
                (x[0] - 0.1).abs() + (x[1] - 0.9).abs()
            },
        );
        assert!(r.best_f < 0.5);
        assert!(count < 1000, "should stop early, used {count}");
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |x: &[f64]| (x[0] - 0.21).powi(2) + (x[1] - 0.77).powi(2) + x[2].sin();
        let a = run(3, 3000, f);
        let b = run(3, 3000, f);
        assert_eq!(a.best_x, b.best_x);
        assert_eq!(a.best_f, b.best_f);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn works_in_higher_dimensions() {
        // 20-dim sphere: DIRECT should reach a decent (not perfect) value.
        let r = run(20, 20_000, |x| {
            x.iter().map(|&v| (v - 0.5) * (v - 0.5)).sum()
        });
        assert!(r.best_f < 1e-6, "best {}", r.best_f);
    }

    #[test]
    fn larger_epsilon_explores_more_rectangles() {
        // With huge epsilon, refinement around the incumbent is suppressed;
        // the optimizer keeps dividing large rectangles. Check it still
        // converges reasonably on a smooth bowl.
        let r = direct_minimize(
            2,
            &DirectConfig {
                max_evals: 2000,
                epsilon: 0.1,
                ..Default::default()
            },
            |x| (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2),
        );
        assert!(r.best_f < 1e-3);
    }
}
