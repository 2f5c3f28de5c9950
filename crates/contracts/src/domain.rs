//! Input-domain enumeration and sampling for obligation discharge.
//!
//! Flux hands each verification condition to an SMT solver, which searches
//! the whole input space symbolically. Our executable stand-in discharges an
//! obligation by *running* the contract over a domain: exhaustively when the
//! domain is small (arithmetic lemmas, register bit fields) and by stratified
//! sampling when it is not (allocator parameter spaces).
//!
//! The domains are deliberately adversarial: boundary values, power-of-two
//! neighbourhoods, and alignment-straddling addresses are always included,
//! because those are exactly the corners where the paper's bugs live.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic seed so verification runs (and their timings) reproduce.
pub const DEFAULT_SEED: u64 = 0x5005_2025_u64;

/// A deterministic sampler over `usize` values with adversarial corners.
#[derive(Debug)]
pub struct UsizeDomain {
    lo: usize,
    hi: usize,
    rng: StdRng,
}

impl UsizeDomain {
    /// Creates a domain over the inclusive range `[lo, hi]`.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "empty domain");
        Self {
            lo,
            hi,
            rng: StdRng::seed_from_u64(DEFAULT_SEED),
        }
    }

    /// Returns the corner values every sample set must include: range ends,
    /// powers of two in range, and their off-by-one neighbours.
    pub fn corners(&self) -> Vec<usize> {
        let mut out = vec![self.lo, self.hi];
        let mut p: usize = 1;
        loop {
            for candidate in [p.wrapping_sub(1), p, p.wrapping_add(1)] {
                if candidate >= self.lo && candidate <= self.hi {
                    out.push(candidate);
                }
            }
            match p.checked_mul(2) {
                Some(next) if next / 2 <= self.hi => p = next,
                _ => break,
            }
            if p > self.hi {
                break;
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Draws `n` samples: all corners first, then uniform draws.
    pub fn samples(&mut self, n: usize) -> Vec<usize> {
        let mut out = self.corners();
        out.truncate(n);
        while out.len() < n {
            out.push(self.rng.gen_range(self.lo..=self.hi));
        }
        out
    }
}

/// An exhaustive product iterator over small per-argument domains.
///
/// Used where the paper reports the SMT solver doing heavy case analysis:
/// e.g. all (size-exponent, subregion-mask) combinations of a Cortex-M
/// region.
pub fn product2<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push((x, y));
        }
    }
    out
}

/// Exhaustive product over three small domains.
pub fn product3<A: Copy, B: Copy, C: Copy>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut out = Vec::with_capacity(a.len() * b.len() * c.len());
    for &x in a {
        for &y in b {
            for &z in c {
                out.push((x, y, z));
            }
        }
    }
    out
}

/// The allocator parameter space used to discharge the memory-allocation
/// obligations (the domain on which the paper's BUG1 manifests).
///
/// `unalloc_start` varies over misaligned RAM offsets; `app_size` and
/// `kernel_size` vary across subregion-granularity steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocParams {
    /// First address of unallocated RAM handed to the allocator.
    pub unalloc_start: usize,
    /// Bytes of unallocated RAM available.
    pub unalloc_size: usize,
    /// Minimum total size the process loader demands.
    pub min_size: usize,
    /// Bytes of RAM the application requested.
    pub app_size: usize,
    /// Bytes reserved for the kernel-owned grant region.
    pub kernel_size: usize,
}

/// Enumerates an adversarial grid of allocation parameters: the
/// concatenation of its [`alloc_param_rows`] rows, see [`alloc_param_row`].
///
/// `density` scales how many points are produced (the verifier uses a higher
/// density for the monolithic allocator, matching the paper's observation
/// that over 90% of verification time went to `allocate_app_mem_region`).
pub fn alloc_param_grid(ram_base: usize, ram_size: usize, density: usize) -> Vec<AllocParams> {
    (0..alloc_param_rows(density))
        .flat_map(|row| alloc_param_row(ram_base, ram_size, density, row))
        .collect()
}

/// Number of rows of [`alloc_param_grid`] at `density`: one per
/// `unalloc_start`.
pub fn alloc_param_rows(density: usize) -> usize {
    1 + 4 * density
}

/// Row `row` of [`alloc_param_grid`]: every point with the row's
/// `unalloc_start`, in grid order. `app_size` and `kernel_size` vary
/// across subregion-granularity steps, and each pair is paired with two
/// `min_size` demands.
pub fn alloc_param_row(
    ram_base: usize,
    ram_size: usize,
    density: usize,
    row: usize,
) -> impl Iterator<Item = AllocParams> {
    let size_steps = 1 + 3 * density;
    // Walk starts across misalignments: subregion-size strides plus odd
    // offsets that force the allocator's realignment path.
    let unalloc_start = ram_base + row * 96 + (row % 3) * 4;
    let unalloc_size = ram_size - (unalloc_start - ram_base);
    (0..size_steps).flat_map(move |ai| {
        let app_size = 512 + ai * 384 + (ai % 2) * 60;
        (0..size_steps).flat_map(move |ki| {
            let kernel_size = 128 + ki * 172;
            [1usize, 2].map(|min_mult| AllocParams {
                unalloc_start,
                unalloc_size,
                min_size: app_size * min_mult / 2 + kernel_size,
                app_size,
                kernel_size,
            })
        })
    })
}

/// Enumerates brk-style break updates relative to an allocated block.
///
/// Includes the adversarial "shrink below memory start" and "grow past the
/// grant region" points that trigger BUG3 in the unvalidated legacy path.
pub fn brk_param_grid(memory_start: usize, memory_size: usize, density: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let end = memory_start + memory_size;
    let steps = 8 * density.max(1);
    for i in 0..=steps {
        out.push(memory_start + (memory_size * i) / steps);
    }
    // Adversarial corners: just below start, just past end, and extremes.
    out.extend([
        memory_start.saturating_sub(1),
        memory_start.saturating_sub(64),
        end + 1,
        end + 4096,
        0,
        usize::MAX / 2,
    ]);
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_include_bounds_and_pow2_neighbours() {
        let d = UsizeDomain::new(10, 100);
        let corners = d.corners();
        assert!(corners.contains(&10));
        assert!(corners.contains(&100));
        assert!(corners.contains(&16));
        assert!(corners.contains(&15));
        assert!(corners.contains(&17));
        assert!(corners.contains(&64));
        assert!(corners.iter().all(|&c| (10..=100).contains(&c)));
    }

    #[test]
    fn samples_are_deterministic_and_in_range() {
        let mut d1 = UsizeDomain::new(0, 1 << 20);
        let mut d2 = UsizeDomain::new(0, 1 << 20);
        let s1 = d1.samples(256);
        let s2 = d2.samples(256);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 256);
        assert!(s1.iter().all(|&v| v <= 1 << 20));
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn inverted_domain_panics() {
        let _ = UsizeDomain::new(5, 4);
    }

    #[test]
    fn product_sizes() {
        let p2 = product2(&[1, 2, 3], &['a', 'b']);
        assert_eq!(p2.len(), 6);
        let p3 = product3(&[1, 2], &[3, 4], &[5, 6, 7]);
        assert_eq!(p3.len(), 12);
        assert!(p3.contains(&(2, 4, 7)));
    }

    #[test]
    fn alloc_grid_scales_with_density_and_stays_in_ram() {
        let small = alloc_param_grid(0x2000_0000, 0x1_0000, 1);
        let big = alloc_param_grid(0x2000_0000, 0x1_0000, 3);
        assert!(big.len() > small.len() * 3);
        for p in &small {
            assert!(p.unalloc_start >= 0x2000_0000);
            assert!(p.unalloc_start + p.unalloc_size <= 0x2000_0000 + 0x1_0000);
        }
    }

    #[test]
    fn alloc_grid_is_the_concatenation_of_its_rows() {
        // The grid as one nested loop, before it was split into rows.
        fn nested(ram_base: usize, ram_size: usize, density: usize) -> Vec<AllocParams> {
            let mut out = Vec::new();
            let size_steps = 1 + 3 * density;
            for si in 0..1 + 4 * density {
                let unalloc_start = ram_base + si * 96 + (si % 3) * 4;
                for ai in 0..size_steps {
                    let app_size = 512 + ai * 384 + (ai % 2) * 60;
                    for ki in 0..size_steps {
                        let kernel_size = 128 + ki * 172;
                        for min_mult in [1usize, 2] {
                            out.push(AllocParams {
                                unalloc_start,
                                unalloc_size: ram_size - (unalloc_start - ram_base),
                                min_size: app_size * min_mult / 2 + kernel_size,
                                app_size,
                                kernel_size,
                            });
                        }
                    }
                }
            }
            out
        }
        let (base, size) = (0x2000_0000, 0x4_0000);
        for d in 0..=20 {
            let grid = alloc_param_grid(base, size, d);
            let rows: Vec<AllocParams> = (0..alloc_param_rows(d))
                .flat_map(|row| alloc_param_row(base, size, d, row))
                .collect();
            assert_eq!(grid, rows, "density {d}");
            assert_eq!(grid, nested(base, size, d), "density {d}");
        }
        assert_eq!(alloc_param_rows(20), 81);
        assert_eq!(alloc_param_rows(2), 9);
        assert_eq!(alloc_param_grid(base, size, 20).len(), 602_802);
    }

    #[test]
    fn brk_grid_contains_adversarial_corners() {
        let g = brk_param_grid(0x2000_0000, 8192, 1);
        assert!(g.contains(&(0x2000_0000 - 1)));
        assert!(g.contains(&(0x2000_0000 + 8192 + 1)));
        assert!(g.contains(&0));
        assert!(g.contains(&0x2000_0000));
        assert!(g.contains(&(0x2000_0000 + 8192)));
    }
}
