//! Table V at the `FT_SCALE` scale: [`ft_bench::paper::table5`].

fn main() {
    ft_bench::paper::table5(&ft_bench::Scale::from_env()).print();
}
