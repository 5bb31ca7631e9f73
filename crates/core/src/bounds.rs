//! Closed-form error bounds quoted by the paper, used by the benches to
//! print theory next to measurement.
//!
//! Each function returns the expression inside the `O(·)`/`Ω(·)` with
//! constant 1; the benches report measured-to-bound ratios, so only the
//! *shape* matters (`exp_error_vs_k` prints them).

/// Theorem 4.1 — this paper's protocol:
/// `(log d / ε) · √(k · n · ln(d/β))`.
pub fn future_rand_bound(n: usize, d: u64, k: usize, epsilon: f64, beta: f64) -> f64 {
    let log_d = (d as f64).log2();
    (log_d / epsilon) * ((k as f64) * (n as f64) * (d as f64 / beta).ln()).sqrt()
}

/// Erlingsson et al. (2020), as restated in Section 1:
/// `(1/ε) · (log d)^{3/2} · k · √(n · log(d/β))`.
pub fn erlingsson_bound(n: usize, d: u64, k: usize, epsilon: f64, beta: f64) -> f64 {
    let log_d = (d as f64).log2();
    (1.0 / epsilon) * log_d.powf(1.5) * (k as f64) * ((n as f64) * (d as f64 / beta).ln()).sqrt()
}

/// The lower bound of Zhou et al. quoted in Section 1:
/// `(1/ε) · √(k · n · log(d/k))`.
pub fn lower_bound(n: usize, d: u64, k: usize, epsilon: f64) -> f64 {
    let ratio = (d as f64 / k as f64).max(2.0);
    (1.0 / epsilon) * ((k as f64) * (n as f64) * ratio.ln()).sqrt()
}

/// The central-model binary-tree mechanism (Dwork et al. 2010, Chan et al.
/// 2011), per-time error `O((1/ε)·(log d)^{1.5})` — independent of `n`,
/// which is the whole local-vs-central gap.
pub fn central_tree_bound(d: u64, epsilon: f64) -> f64 {
    let log_d = (d as f64).log2().max(1.0);
    (1.0 / epsilon) * log_d.powf(1.5)
}

/// Naive repeated randomized response with the budget split `ε/d` per
/// period: per-time error `O((d/ε)·√(n·ln(d/β)))`.
pub fn naive_split_bound(n: usize, d: u64, epsilon: f64, beta: f64) -> f64 {
    (d as f64 / epsilon) * ((n as f64) * (d as f64 / beta).ln()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_improvement_factor_is_sqrt_k_times_polylog() {
        // Erlingsson / FutureRand = √k · √log d (exactly, with constant 1).
        for k in [1usize, 4, 16, 64] {
            let ours = future_rand_bound(10_000, 256, k, 1.0, 0.05);
            let theirs = erlingsson_bound(10_000, 256, k, 1.0, 0.05);
            let expect = (k as f64).sqrt() * (256f64).log2().sqrt();
            let ratio = theirs / ours;
            assert!(
                (ratio - expect).abs() < 1e-9,
                "k={k}: ratio {ratio} vs {expect}"
            );
        }
    }

    #[test]
    fn upper_bound_dominates_lower_bound_shape() {
        // Our bound exceeds the lower bound by at most log factors: their
        // ratio must grow slower than log²(d).
        for d in [16u64, 256, 4096, 65_536] {
            let up = future_rand_bound(1_000_000, d, 8, 0.5, 0.05);
            let low = lower_bound(1_000_000, d, 8, 0.5);
            let ratio = up / low;
            let log_d = (d as f64).log2();
            assert!(ratio >= 1.0, "upper below lower at d={d}");
            assert!(ratio <= log_d * log_d, "gap {ratio} exceeds log²d at d={d}");
        }
    }

    #[test]
    fn central_bound_is_n_free() {
        assert_eq!(central_tree_bound(256, 1.0), central_tree_bound(256, 1.0));
        // And tiny compared to any local bound at realistic n.
        assert!(central_tree_bound(256, 1.0) < future_rand_bound(10_000, 256, 1, 1.0, 0.05));
    }

    #[test]
    fn naive_split_is_much_worse_in_d() {
        // naive/ours grows like d/(√k·polylog) — check it exceeds 10× by
        // d = 256.
        let ours = future_rand_bound(10_000, 256, 8, 1.0, 0.05);
        let naive = naive_split_bound(10_000, 256, 1.0, 0.05);
        assert!(naive > 10.0 * ours, "naive {naive} vs ours {ours}");
    }
}
