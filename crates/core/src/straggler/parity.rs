//! Bit-for-bit parity of the log-normal order-statistic kernels with a
//! frozen copy of their plain scalar form.
//!
//! The kernels hoist the grid's logarithms, share one `Φ`/`1 − Φ`
//! evaluation, skip terms that are exactly `+0.0` and take the small-`n`
//! powers lane-wise. None of that may change a result, so every value is
//! compared by `to_bits` against [`frozen`], the scalar kernels as they
//! were before those optimisations: the `powi` grid path, the log-space
//! grid path and the asymptotic window.
//!
//! The full budget (60 generated `(μ, σ)` pairs for whole order
//! statistics, 12 for the term-by-term checks) runs in release:
//! `cargo test --release -p mlscale-core --lib straggler::parity`. Debug
//! builds run a thinned budget so the default `cargo test` stays quick.

use super::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scalar kernels exactly as they stood before the structure-of-arrays
/// grid, the hoisted logarithms and the zero-term skips. Do not edit:
/// these are the reference the optimised kernels must reproduce.
pub(super) mod frozen {
    use super::super::{inv_normal_cdf, ln_order_stat_coeff};

    pub fn normal_cdf(z: f64) -> f64 {
        let x = z / std::f64::consts::SQRT_2;
        let (sign, x) = if x < 0.0 { (-1.0, -x) } else { (1.0, x) };
        let t = 1.0 / (1.0 + 0.327_591_1 * x);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-x * x).exp();
        0.5 * (1.0 + sign * erf)
    }

    pub fn normal_sf(z: f64) -> f64 {
        if z < 0.0 {
            return 1.0 - normal_cdf(z);
        }
        let x = z / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * x);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        0.5 * poly * (-x * x).exp()
    }

    pub struct Grid {
        phi: Vec<f64>,
        exp_term: Vec<f64>,
        density: Vec<f64>,
        h: f64,
    }

    impl Grid {
        pub fn new(mu: f64, sigma: f64) -> Self {
            let lo = -9.0f64;
            let hi = 10.0 + sigma;
            let steps = 4000usize;
            let h = (hi - lo) / steps as f64;
            let zs: Vec<f64> = (0..=steps)
                .map(|i| {
                    if i == 0 {
                        lo
                    } else if i == steps {
                        hi
                    } else {
                        lo + i as f64 * h
                    }
                })
                .collect();
            let phi: Vec<f64> = zs.iter().map(|&z| normal_cdf(z)).collect();
            let exp_term: Vec<f64> = zs.iter().map(|&z| (mu + sigma * z).exp()).collect();
            let density: Vec<f64> = zs
                .iter()
                .map(|&z| (-z * z / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt())
                .collect();
            Self {
                phi,
                exp_term,
                density,
                h,
            }
        }

        pub fn expected_order_stat(&self, n: usize, k: usize) -> f64 {
            if n > 512 {
                return self.expected_order_stat_log_coeff(n, k);
            }
            let m = n - k;
            let mut coeff = m as f64;
            for j in 1..=k {
                coeff *= (n - j + 1) as f64 / j as f64;
            }
            self.simpson(|i| self.powi_term(i, coeff, m, k))
        }

        pub fn expected_order_stat_log_coeff(&self, n: usize, k: usize) -> f64 {
            let ln_coeff = ln_order_stat_coeff(n, k);
            self.simpson(|i| self.log_term(i, ln_coeff, n - k, k))
        }

        fn simpson(&self, integrand: impl Fn(usize) -> f64) -> f64 {
            let steps = self.phi.len() - 1;
            let mut sum = integrand(0) + integrand(steps);
            for i in 1..steps {
                let w = if i % 2 == 1 { 4.0 } else { 2.0 };
                sum += w * integrand(i);
            }
            sum * self.h / 3.0
        }

        /// The `n ≤ 512` integrand at grid point `i`, `coeff = m·C(n, k)`.
        pub fn powi_term(&self, i: usize, coeff: f64, m: usize, k: usize) -> f64 {
            coeff
                * self.exp_term[i]
                * self.phi[i].powi(m as i32 - 1)
                * (1.0 - self.phi[i]).powi(k as i32)
                * self.density[i]
        }

        /// The log-space integrand at grid point `i`.
        pub fn log_term(&self, i: usize, ln_coeff: f64, m: usize, k: usize) -> f64 {
            let mut ln_pow = ln_coeff;
            if m > 1 {
                if self.phi[i] <= 0.0 {
                    return 0.0;
                }
                ln_pow += (m as f64 - 1.0) * self.phi[i].ln();
            }
            if k > 0 {
                let sf = 1.0 - self.phi[i];
                if sf <= 0.0 {
                    return 0.0;
                }
                ln_pow += k as f64 * sf.ln();
            }
            ln_pow.exp() * self.exp_term[i] * self.density[i]
        }
    }

    pub fn asymptotic(mu: f64, sigma: f64, n: usize, k: usize) -> f64 {
        let (lo, hi) = asymptotic_window(n, k);
        let steps = 2048usize;
        let h = (hi - lo) / steps as f64;
        let ln_coeff = ln_order_stat_coeff(n, k);
        let integrand = |z: f64| asymptotic_term(mu, sigma, ln_coeff, n - k, k, z);
        let mut sum = integrand(lo) + integrand(hi);
        for i in 1..steps {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * integrand(lo + i as f64 * h);
        }
        sum * h / 3.0
    }

    pub fn asymptotic_window(n: usize, k: usize) -> (f64, f64) {
        let m = n - k;
        let nf = n as f64;
        let u_star = m as f64 / (nf + 1.0);
        let b_n = if u_star > 0.5 {
            -inv_normal_cdf((k as f64 + 1.0) / (nf + 1.0))
        } else {
            inv_normal_cdf(u_star)
        };
        let s_u = (u_star * (1.0 - u_star) / (nf + 2.0)).sqrt();
        let phi_b = (-b_n * b_n / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let a_n = s_u / phi_b;
        let half_width = 30.0 * a_n;
        (b_n - half_width, b_n + half_width)
    }

    /// The asymptotic window's integrand at `z`.
    pub fn asymptotic_term(mu: f64, sigma: f64, ln_coeff: f64, m: usize, k: usize, z: f64) -> f64 {
        let ln_sqrt_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        let mut ln_f = ln_coeff + mu + sigma * z - z * z / 2.0 - ln_sqrt_2pi;
        if m > 1 {
            let cdf = normal_cdf(z);
            if cdf <= 0.0 {
                return 0.0;
            }
            ln_f += (m as f64 - 1.0) * cdf.ln();
        }
        if k > 0 {
            let sf = normal_sf(z);
            if sf <= 0.0 {
                return 0.0;
            }
            ln_f += k as f64 * sf.ln();
        }
        ln_f.exp()
    }
}

/// How much of the parameter space one run covers.
struct Budget {
    /// Generated `(μ, σ)` pairs, besides the fixed `σ = 1e-3` one.
    pairs: usize,
    /// Step through `n ∈ 1..=600` (1 = every `n`).
    n_step: usize,
    /// Rungs of the log ladder to `10⁶`.
    ladder: usize,
}

fn budget() -> Budget {
    if cfg!(debug_assertions) {
        Budget {
            pairs: 2,
            n_step: 23,
            ladder: 12,
        }
    } else {
        Budget {
            pairs: 60,
            n_step: 1,
            ladder: 60,
        }
    }
}

/// The `(μ, σ)` pairs under test: μ ∈ [−4, 3], σ ∈ [0.02, 2.5] from a
/// fixed seed, plus the narrow σ = 1e-3.
fn parameter_pairs(count: usize) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(0x9A81_7E57);
    let mut pairs: Vec<(f64, f64)> = (0..count)
        .map(|_| (rng.gen_range(-4.0..3.0), rng.gen_range(0.02..2.5)))
        .collect();
    pairs.push((-1.3, 1e-3));
    pairs
}

/// The drop counts checked at `n`: {0, 1, 2, 3, 7, n/3, n/2, n−1}
/// clamped below `n`, without repeats.
fn drop_counts(n: usize) -> Vec<usize> {
    let mut ks: Vec<usize> = [0, 1, 2, 3, 7, n / 3, n / 2, n - 1]
        .into_iter()
        .filter(|&k| k < n)
        .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

#[test]
fn kernels_are_bit_identical_to_the_frozen_scalar_kernels() {
    let budget = budget();
    let mut ns: Vec<usize> = (1..=600).step_by(budget.n_step).collect();
    ns.extend([511, 512, 513, 8191, 8192, 8193]);
    ns.extend(log_spaced_ns(1_000_000, budget.ladder));
    ns.sort_unstable();
    ns.dedup();
    let pairs = parameter_pairs(budget.pairs);
    let checked = par::map(&pairs, |&(mu, sigma)| {
        let model = StragglerModel::LogNormalTail { mu, sigma };
        let grid = OnceLock::new();
        let reference = frozen::Grid::new(mu, sigma);
        let mut checked = 0usize;
        for &n in &ns {
            for k in drop_counts(n) {
                let got = model.order_stat_on(&grid, n, k);
                let want = if n > LOGNORMAL_ASYMPTOTIC_MIN_N {
                    frozen::asymptotic(mu, sigma, n, k)
                } else {
                    reference.expected_order_stat(n, k)
                };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "mu={mu} sigma={sigma} n={n} k={k}: {got:e} vs frozen {want:e}"
                );
                checked += 1;
                // Past the crossover the exact path still runs the grid's
                // log-space kernel, where whole stretches underflow.
                if n > LOGNORMAL_ASYMPTOTIC_MIN_N {
                    let got = model.expected_order_stat_exact(n, k);
                    let want = reference.expected_order_stat(n, k);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "exact mu={mu} sigma={sigma} n={n} k={k}: {got:e} vs frozen {want:e}"
                    );
                    checked += 1;
                }
            }
        }
        checked
    });
    assert!(checked.iter().all(|&c| c > 0));
}

/// Every worker count the term-level tests visit past the asymptotic
/// crossover: the seam and the log ladder to 10⁶.
fn large_ns(budget: &Budget) -> Vec<usize> {
    let mut ns = vec![8193];
    ns.extend(
        log_spaced_ns(1_000_000, budget.ladder)
            .into_iter()
            .filter(|&n| n > LOGNORMAL_ASYMPTOTIC_MIN_N),
    );
    ns
}

#[test]
fn every_asymptotic_term_is_bit_identical() {
    // Term by term, not just the sums: a term skipped while it was tiny
    // but not zero would vanish below the sum's last bit, yet must still
    // show up here.
    let budget = budget();
    let ns = large_ns(&budget);
    let pairs = parameter_pairs(budget.pairs.min(12));
    let skipped = par::map(&pairs, |&(mu, sigma)| {
        let mut skipped = 0usize;
        for &n in &ns {
            for k in drop_counts(n) {
                let (lo, hi) = asymptotic_window(n, k);
                assert_eq!((lo, hi), frozen::asymptotic_window(n, k));
                let h = (hi - lo) / ASYMPTOTIC_STEPS as f64;
                let integrand = AsymptoticIntegrand::new(mu, sigma, n, k, lo, hi);
                let ln_coeff = ln_order_stat_coeff(n, k);
                let zs = (1..ASYMPTOTIC_STEPS).map(|i| lo + i as f64 * h);
                for z in zs.chain([lo, hi]) {
                    let got = integrand.at(z);
                    let want = frozen::asymptotic_term(mu, sigma, ln_coeff, n - k, k, z);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "mu={mu} sigma={sigma} n={n} k={k} z={z}: {got:e} vs frozen {want:e}"
                    );
                    skipped += usize::from(want == 0.0);
                }
            }
        }
        skipped
    });
    assert!(skipped.iter().sum::<usize>() > 0, "no term was ever dead");
}

#[test]
fn every_grid_term_is_bit_identical() {
    // The log-space grid terms one by one, on both sides of the
    // coefficient seam and past the asymptotic crossover (the exact
    // path), and the powi path's live range: every interior term it
    // leaves out must be exactly +0.0.
    let budget = budget();
    let mut ns: Vec<usize> = (1..=600).step_by(budget.n_step.max(5)).collect();
    ns.extend([511, 512, 513, 8191, 8192]);
    ns.extend(large_ns(&budget));
    let pairs = parameter_pairs(budget.pairs.min(12));
    par::map(&pairs, |&(mu, sigma)| {
        let grid = LogNormalGrid::new(mu, sigma);
        let reference = frozen::Grid::new(mu, sigma);
        let steps = grid.phi.len() - 1;
        for &n in &ns {
            for k in drop_counts(n) {
                let m = n - k;
                let ln_coeff = ln_order_stat_coeff(n, k);
                for i in 0..=steps {
                    let got = grid.log_term(i, ln_coeff, m, k);
                    let want = reference.log_term(i, ln_coeff, m, k);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "mu={mu} sigma={sigma} n={n} k={k} i={i}: {got:e} vs frozen {want:e}"
                    );
                }
                if n > LOGNORMAL_COEFF_LOOP_MAX_N {
                    continue;
                }
                let mut coeff = m as f64;
                for j in 1..=k {
                    coeff *= (n - j + 1) as f64 / j as f64;
                }
                let live = grid.powi_live_range(coeff, m as u32 - 1, k as u32);
                for i in (1..live.start).chain(live.end..steps) {
                    let want = reference.powi_term(i, coeff, m, k);
                    assert_eq!(
                        want.to_bits(),
                        0.0f64.to_bits(),
                        "mu={mu} sigma={sigma} n={n} k={k} i={i} outside {live:?}: {want:e}"
                    );
                }
            }
        }
    });
}

/// `x.to_bits()`, with every NaN mapped to one pattern: Rust leaves the
/// sign and payload of a NaN result unspecified, and vectorised code may
/// pick a different one than scalar code for the same operation.
fn bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

#[test]
fn lane_wise_cdf_sf_is_bit_identical_to_the_scalar_pair() {
    // The asymptotic window's interior takes Φ and 1 − Φ from the lane
    // pass and its endpoints (and the per-term test above) from the
    // scalar call; both must agree bit for bit, and with normal_cdf.
    let mut zs = vec![-0.0, 0.0, f64::MIN_POSITIVE, -40.0, 40.0, f64::NAN, 1e300];
    zs.extend((-4000..=4000).map(|i| i as f64 / 300.0 + 1e-4));
    for chunk in zs.chunks(LANES - 3) {
        let (mut cdf, mut sf) = ([0.0f64; LANES], [0.0f64; LANES]);
        normal_cdf_sf_lanes(chunk, &mut cdf, &mut sf);
        for (i, &z) in chunk.iter().enumerate() {
            let (want_cdf, want_sf) = normal_cdf_sf(z);
            assert_eq!(bits(cdf[i]), bits(want_cdf), "Φ at z={z}");
            assert_eq!(bits(sf[i]), bits(want_sf), "1 − Φ at z={z}");
            assert_eq!(bits(want_cdf), bits(frozen::normal_cdf(z)), "z={z}");
        }
    }
}

#[test]
fn lane_wise_powi_is_bit_identical_to_f64_powi() {
    let bases = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 1024.0, // subnormal
        f64::MIN_POSITIVE,
        1e-300,
        0.5,
        0.3,
        0.999_999,
        1.0 - f64::EPSILON,
        1.0,
        1.0 + f64::EPSILON,
        1.5,
        -0.7,
        f64::INFINITY,
        f64::NAN,
    ];
    for e in 0..=1023u32 {
        let mut lanes = [0.0f64; LANES];
        for (lane, x) in lanes.iter_mut().enumerate() {
            *x = bases[lane % bases.len()];
        }
        powi_lanes(&mut lanes, e);
        for (lane, &got) in lanes.iter().enumerate() {
            let base = bases[lane % bases.len()];
            let want = base.powi(e as i32);
            assert_eq!(bits(got), bits(want), "{base:e}^{e}");
        }
    }
}
