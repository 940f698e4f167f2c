//! Figure 6 at the `FT_SCALE` scale: [`ft_bench::paper::fig6`].

fn main() {
    ft_bench::paper::fig6(&ft_bench::Scale::from_env()).print();
}
