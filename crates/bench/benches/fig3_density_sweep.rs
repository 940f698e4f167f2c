//! Figure 3 at the `FT_SCALE` scale: [`ft_bench::paper::fig3`].

fn main() {
    ft_bench::paper::fig3(&ft_bench::Scale::from_env()).print();
}
