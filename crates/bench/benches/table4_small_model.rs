//! Table IV at the `FT_SCALE` scale: [`ft_bench::paper::table4`].

fn main() {
    ft_bench::paper::table4(&ft_bench::Scale::from_env()).print();
}
