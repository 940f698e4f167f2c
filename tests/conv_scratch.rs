//! A dense convolution's scratch is grown once: after its first step, a
//! batch of another size — and the first size again — allocates nothing, and
//! what the first step grew is far less than the batch's column matrix.
//!
//! The counter of the counting allocator is process-wide, so this binary
//! holds one test and nothing runs beside it.

use fedtiny_suite::nn::{Conv2d, Mode};
use fedtiny_suite::tensor::{normal, Tensor};
use ft_bench::{allocated_bytes, CountingAlloc};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_dense_conv_grows_its_scratch_once_and_never_a_column_matrix() {
    let (in_c, out_c, side) = (16usize, 8usize, 12usize);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut conv = Conv2d::new(&mut rng, in_c, out_c, 3, 1, 1, true, "c");
    let batches: Vec<(Tensor, Tensor)> = [32usize, 18, 32, 1]
        .into_iter()
        .map(|n| {
            let x = normal(&mut rng, &[n, in_c, side, side], 0.0, 1.0);
            let dy = normal(&mut rng, &[n, out_c, side, side], 0.0, 1.0);
            (x, dy)
        })
        .collect();
    let (mut y, mut gx) = (Tensor::default(), Tensor::default());
    let mut step = |(x, dy): &(Tensor, Tensor), mode: Mode| {
        let before = allocated_bytes();
        conv.forward_into(x, &mut y, mode);
        conv.backward_into(dy, &mut gx);
        allocated_bytes() - before
    };

    let first = step(&batches[0], Mode::Train);
    let columns = (4 * 32 * in_c * 9 * side * side) as u64;
    assert!(first > 0 && 2 * first < columns, "{first} B vs {columns} B");
    for (batch, mode) in batches[1..]
        .iter()
        .zip([Mode::Train, Mode::Eval, Mode::Train])
    {
        assert_eq!(step(batch, mode), 0, "batch of {}", batch.0.shape()[0]);
    }
}
