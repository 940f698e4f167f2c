//! Figure 5 at the `FT_SCALE` scale: [`ft_bench::paper::fig5`].

fn main() {
    ft_bench::paper::fig5(&ft_bench::Scale::from_env()).print();
}
