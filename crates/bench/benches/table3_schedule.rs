//! Table III at the `FT_SCALE` scale: [`ft_bench::paper::table3`].

fn main() {
    ft_bench::paper::table3(&ft_bench::Scale::from_env()).print();
}
