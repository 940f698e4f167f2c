//! FedDST on FedTiny's engine: the run is deterministic, its adjustment is
//! `progressive_adjust` at `Granularity::Entire` and nothing else, and that
//! adjustment grows exactly what it drops in every layer.

use crate::feddst::feddst_rounds;
use crate::run_feddst;
use fedtiny::progressive::progressive_adjust;
use fedtiny::{Granularity, ProgressiveConfig};
use ft_fl::{run_federated_rounds, CostLedger, ExperimentEnv, ModelSpec};
use ft_nn::{apply_mask, flat_params, sparse_layout, Model};
use ft_sparse::{random_mask, uniform_density_vector, Mask, PruneSchedule};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const D: f32 = 0.2;
const SCHEDULE: PruneSchedule = PruneSchedule {
    delta_r: 1,
    r_stop: 3,
    local_iters: 1,
};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn alive_per_layer(mask: &Mask) -> Vec<usize> {
    (0..mask.num_layers()).map(|l| mask.layer_ones(l)).collect()
}

/// FedDST's initial mask, drawn the way the runner draws it.
fn initial_mask(env: &ExperimentEnv, model: &dyn Model) -> Mask {
    let layout = sparse_layout(model);
    let mut rng = ChaCha8Rng::seed_from_u64(env.cfg.seed ^ 0x00fe_dd57);
    random_mask(&mut rng, &layout, &uniform_density_vector(&layout, D))
}

#[test]
fn feddst_twice_in_one_process_is_bit_equal() {
    let env = ExperimentEnv::tiny_for_tests(40);
    let spec = ModelSpec::small_cnn_test();
    let (model_a, mask_a, ledger_a, history_a) = feddst_rounds(&env, &spec, D, SCHEDULE, 1);
    let (model_b, mask_b, ledger_b, history_b) = feddst_rounds(&env, &spec, D, SCHEDULE, 1);
    assert_eq!(mask_a, mask_b);
    assert_eq!(
        bits(&flat_params(model_a.as_ref())),
        bits(&flat_params(model_b.as_ref()))
    );
    assert_eq!(bits(&history_a), bits(&history_b));
    let totals = |l: &CostLedger| {
        [
            l.total_comm_bytes(),
            l.total_payload_bytes(),
            l.max_round_flops(),
            l.extra_flops(),
        ]
        .map(f64::to_bits)
    };
    assert_eq!(totals(&ledger_a), totals(&ledger_b));

    let r = run_feddst(&env, &spec, D, SCHEDULE, 1);
    assert_eq!(r.method, "feddst");
    assert_eq!(bits(&r.history), bits(&history_a));
    assert_eq!(r.final_density, mask_a.density());
    assert_eq!(
        r.comm_bytes.to_bits(),
        ledger_a.total_comm_bytes().to_bits()
    );
    assert!(r.final_density <= D + 0.01, "density {}", r.final_density);
    assert!(r.max_round_flops > 0.0);
}

/// A FedDST run against the run assembled by hand from public parts: the
/// same random mask, `run_federated_rounds`, and a hook that is one call to
/// `progressive_adjust` over all layers. Same mask, same weights, bit for
/// bit — and after every adjusting round each layer holds as many weights
/// as the initial mask gave it (grow = drop, per layer).
#[test]
fn feddst_is_progressive_adjust_over_the_entire_model_from_a_random_mask() {
    let env = ExperimentEnv::tiny_for_tests(41);
    let spec = ModelSpec::small_cnn_test();
    let (model, mask, _, history) = feddst_rounds(&env, &spec, D, SCHEDULE, 1);

    let mut by_hand = env.build_model(&spec);
    let mut hand_mask = initial_mask(&env, by_hand.as_ref());
    apply_mask(by_hand.as_mut(), &hand_mask);
    let initial = alive_per_layer(&hand_mask);
    let entire = ProgressiveConfig {
        schedule: SCHEDULE,
        granularity: Granularity::Entire,
        backward_order: false,
        start_round: 0,
    };
    let all_layers: Vec<usize> = (0..hand_mask.num_layers()).collect();
    let mut adjusted_rounds = 0;
    let mut hook = |m: &mut dyn Model, mask: &mut Mask, round: usize, _: &mut CostLedger| {
        if SCHEDULE.adjusts_at(round) {
            let before = mask.clone();
            let report = progressive_adjust(m, mask, &env, &entire, &all_layers, round);
            adjusted_rounds += usize::from(!report.adjusted.is_empty() && *mask != before);
            assert_eq!(alive_per_layer(mask), initial, "round {round}");
        }
        0.0
    };
    let hand_history = run_federated_rounds(
        by_hand.as_mut(),
        &mut hand_mask,
        &env,
        1,
        &mut CostLedger::new(),
        &mut hook,
    );
    assert!(adjusted_rounds >= 2, "the schedule must move the mask");

    assert_eq!(mask, hand_mask);
    assert_ne!(mask, initial_mask(&env, model.as_ref()));
    assert_eq!(
        bits(&flat_params(model.as_ref())),
        bits(&flat_params(by_hand.as_ref()))
    );
    assert_eq!(bits(&history), bits(&hand_history));
}
