//! Heterogeneity figure (extension beyond the paper): accuracy vs
//! *simulated* fleet makespan for the three round schedulers on the same
//! seed and the same mixed fast/balanced/slow fleet.
//!
//! Expected shape: `synchronous` pays the slow tier's time every round
//! (largest makespan); `deadline` cuts stragglers, trading a little
//! accuracy for a bounded round time; `buffered` keeps fast devices busy
//! continuously and reaches comparable accuracy in the smallest simulated
//! makespan, at the price of staleness-discounted updates.

use fedtiny::run_fedtiny;
use ft_bench::methods::fedtiny_config;
use ft_bench::table::{acc, mb};
use ft_bench::{Scale, Table};
use ft_data::DatasetProfile;
use ft_fl::{fleet_spread_deadline, DeviceProfile, Scheduler};
use ft_nn::sparse_layout;

fn main() {
    let scale = Scale::from_env();
    let seed = 7;
    let d_target = 0.1;
    let env = scale.env(DatasetProfile::Cifar10, seed);
    let spec = scale.resnet();
    let fleet = DeviceProfile::fleet_mixed(env.num_devices());

    // A deadline strictly inside the fleet's spread *at the target
    // density* (the fleet's steady state): the fast tier always lands, the
    // slow tier is cut.
    let deadline_secs = {
        let env = env.clone().with_fleet(fleet.clone());
        let model = env.build_model(&spec);
        let densities = vec![d_target; sparse_layout(model.as_ref()).num_layers()];
        fleet_spread_deadline(&env, &model.arch(), &densities)
    };
    let buffer_k = (env.num_devices() / 2).max(1);
    let policies = [
        Scheduler::Synchronous,
        Scheduler::Deadline { deadline_secs },
        Scheduler::Buffered { buffer_k },
    ];

    let mut table = Table::new(
        &format!(
            "Fig. heterogeneity — accuracy vs simulated makespan \
             (FedTiny d={d_target}, mixed fleet, seed {seed}, deadline {deadline_secs:.1}s, K={buffer_k})"
        ),
        [
            "scheduler",
            "top1",
            "density",
            "sim_makespan_s",
            "vs_sync",
            "comm",
        ],
    );
    let mut sync_makespan = None;
    for policy in policies {
        let env = scale
            .env(DatasetProfile::Cifar10, seed)
            .with_fleet(fleet.clone())
            .with_scheduler(policy);
        let cfg = fedtiny_config(&env, &spec, d_target);
        let r = run_fedtiny(&env, &cfg);
        let makespan = r.sim_makespan_secs;
        let baseline = *sync_makespan.get_or_insert(makespan);
        table.row(vec![
            policy.name().to_string(),
            acc(r.accuracy),
            format!("{:.3}", r.final_density),
            format!("{makespan:.1}"),
            format!("{:.2}x", makespan / baseline.max(f64::MIN_POSITIVE)),
            mb(r.comm_bytes),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: synchronous pays the slow tier every round; deadline bounds the\n\
         round at {deadline_secs:.1}s simulated; buffered aggregates every {buffer_k} arrivals and\n\
         finishes the same round budget in the least simulated time."
    );
}
