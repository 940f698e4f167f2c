//! The heterogeneity figure at the `FT_SCALE` scale: [`ft_bench::paper::heterogeneity`].

fn main() {
    ft_bench::paper::heterogeneity(&ft_bench::Scale::from_env()).print();
}
