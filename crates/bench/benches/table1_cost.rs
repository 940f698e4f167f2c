//! Table I at the `FT_SCALE` scale: [`ft_bench::paper::table1`].

fn main() {
    ft_bench::paper::table1(&ft_bench::Scale::from_env()).print();
}
