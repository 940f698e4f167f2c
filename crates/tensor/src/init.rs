//! Seeded random initializers for network parameters.

use crate::Tensor;
use rand::Rng;

/// Samples a tensor with i.i.d. `N(mean, std²)` entries.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], mean: f32, std: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| mean + std * sample_standard_normal(rng))
        .collect();
    Tensor::from_vec(data, shape)
}

/// Kaiming (He) normal initialization for ReLU networks: `N(0, sqrt(2/fan_in)²)`.
///
/// `fan_in` is inferred from the shape: for `[out, in]` linear weights it is
/// `in`; for `[out_c, in_c, k, k]` convolution weights it is `in_c * k * k`.
///
/// # Panics
///
/// Panics if the shape has fewer than 2 dims or zero fan-in.
pub fn kaiming_normal<R: Rng + ?Sized>(rng: &mut R, shape: &[usize]) -> Tensor {
    assert!(shape.len() >= 2, "kaiming init needs weight rank >= 2");
    let fan_in: usize = shape[1..].iter().product();
    assert!(fan_in > 0, "kaiming init needs nonzero fan-in");
    let std = (2.0 / fan_in as f32).sqrt();
    normal(rng, shape, 0.0, std)
}

/// Box–Muller standard normal sample.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = normal(&mut rng, &[10_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn kaiming_std_tracks_fan_in() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let t = kaiming_normal(&mut rng, &[64, 32, 3, 3]);
        let fan_in = 32 * 9;
        let expect_std = (2.0 / fan_in as f32).sqrt();
        let std = (t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32).sqrt();
        assert!(
            (std - expect_std).abs() / expect_std < 0.15,
            "{std} vs {expect_std}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = normal(&mut ChaCha8Rng::seed_from_u64(1), &[16], 0.0, 1.0);
        let b = normal(&mut ChaCha8Rng::seed_from_u64(1), &[16], 0.0, 1.0);
        assert_eq!(a, b);
    }
}
