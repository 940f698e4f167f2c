//! Figure 4 at the `FT_SCALE` scale: [`ft_bench::paper::fig4`].

fn main() {
    ft_bench::paper::fig4(&ft_bench::Scale::from_env()).print();
}
