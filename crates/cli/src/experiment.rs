//! `ft run --method`: one experiment of the paper's evaluation — FedTiny,
//! one of its ablation arms, a baseline or the small dense model — through
//! [`ft_bench::run_method`], printed as a pretty JSON `RunResult`.
//!
//! ```bash
//! ft run --method fedtiny --dataset cifar10 --model resnet18 \
//!     --density 0.05 --preset lab --seed 0
//! ```
//!
//! A method run has no transport, checkpoint or metrics plumbing, so it
//! takes only its own six flags and refuses every other one (the fleet
//! flags and the `demo` / `straggler` presets included) with a usage error
//! instead of ignoring it.

use crate::args::die;
use ft_bench::{run_method, Method, Scale, ScaleKind};
use ft_data::DatasetProfile;
use ft_fl::{ExperimentEnv, ModelSpec};

/// One parsed `ft run --method` invocation.
#[derive(Debug)]
struct Experiment {
    method: Method,
    dataset: DatasetProfile,
    scale: Scale,
    spec: ModelSpec,
    density: f32,
    seed: u64,
    alpha: Option<f64>,
}

/// `ft run --method <name> [...]`: runs the experiment and prints its
/// record. A config the environment rejects (e.g. `--alpha 0`) is a usage
/// error, like a malformed flag.
pub fn cmd_run(argv: &[String]) -> i32 {
    let exp = parse(argv).unwrap_or_else(|e| die(&e));
    let mut cfg = exp.scale.fl_config(exp.seed);
    if let Some(alpha) = exp.alpha {
        cfg.alpha = alpha;
    }
    let env = ExperimentEnv::try_new(exp.scale.synth(exp.dataset, exp.seed), cfg)
        .unwrap_or_else(|e| die(&format!("invalid experiment: {e}")));
    let cfg = exp.method.config(&env, &exp.spec, exp.density);
    let result = run_method(&env, exp.method, &cfg);
    match serde_json::to_string_pretty(&result) {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("ft: serializing the result failed: {e}");
            1
        }
    }
}

fn parse(argv: &[String]) -> Result<Experiment, String> {
    let mut method = None;
    let mut dataset = DatasetProfile::Cifar10;
    let mut model = "resnet18";
    let mut density = 0.05f32;
    let mut scale = None;
    let mut seed = 0u64;
    let mut alpha = None;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--method" => {
                let name = value()?;
                method = Some(
                    Method::from_name(name).ok_or_else(|| format!("unknown method {name:?}"))?,
                );
            }
            "--dataset" => {
                dataset = match value()? {
                    "cifar10" => DatasetProfile::Cifar10,
                    "cifar100" => DatasetProfile::Cifar100,
                    "cinic10" => DatasetProfile::Cinic10,
                    "svhn" => DatasetProfile::Svhn,
                    other => return Err(format!("unknown dataset {other:?}")),
                }
            }
            "--model" => model = value()?,
            "--density" => {
                density = value()?.parse().map_err(|e| format!("bad density: {e}"))?;
                if !(density > 0.0 && density <= 1.0) {
                    return Err(format!("density must be in (0, 1], got {density}"));
                }
            }
            "--preset" => {
                scale = Some(ScaleKind::from_name(value()?).map_err(|e| format!("--preset: {e}"))?)
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--alpha" => alpha = Some(value()?.parse().map_err(|e| format!("bad alpha: {e}"))?),
            other => {
                return Err(format!(
                    "{other:?} is not accepted with --method \
                     (it takes --dataset --model --density --preset --seed --alpha)"
                ))
            }
        }
    }
    let scale = Scale::new(match scale {
        Some(kind) => kind,
        None => ScaleKind::from_env()?,
    });
    let spec = match model {
        "resnet18" => scale.resnet(),
        "vgg11" => scale.vgg(),
        "small_cnn" => scale.small_cnn(),
        other => {
            return Err(format!(
                "unknown model {other:?}; expected resnet18 | vgg11 | small_cnn"
            ))
        }
    };
    Ok(Experiment {
        method: method.ok_or("--method is required")?,
        dataset,
        scale,
        spec,
        density,
        seed,
        alpha,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a whitespace-separated command line (after `ft run`).
    fn parse_line(line: &str) -> Result<Experiment, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_full_command() {
        let e = parse_line(
            "--method fedtiny --dataset svhn --model vgg11 --density 0.01 \
             --preset smoke --seed 7 --alpha 0.3",
        )
        .expect("valid");
        assert_eq!(e.method, Method::FedTiny);
        assert_eq!(e.dataset, DatasetProfile::Svhn);
        assert_eq!(e.scale.kind, ScaleKind::Smoke);
        assert_eq!(e.spec, Scale::new(ScaleKind::Smoke).vgg());
        assert_eq!(e.density, 0.01);
        assert_eq!(e.seed, 7);
        assert_eq!(e.alpha, Some(0.3));
    }

    #[test]
    fn method_is_required() {
        assert!(parse_line("--density 0.1").is_err());
    }

    #[test]
    fn rejects_bad_density() {
        for bad in ["0", "1.5", "-0.1", "NaN", "dense"] {
            assert!(parse_line(&format!("--method snip --density {bad}")).is_err());
        }
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        for line in [
            "--method nope",
            "--method adaptive_bn_selection",
            "--method snip --bogus 1",
            "--method snip --dataset imagenet",
            "--method snip --model resnet50",
            "--method snip --preset huge",
            "--method snip --seed",
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }

    /// `--method` runs have no transport, checkpoint or metrics plumbing:
    /// a fleet flag or a fleet preset is refused by name, never silently
    /// dropped.
    #[test]
    fn refuses_fleet_flags_and_presets() {
        for fleet in [
            "--codec dense",
            "--byzantine 1:sign_flip:8",
            "--checkpoint run.ckpt",
            "--resume",
            "--metrics 127.0.0.1:9090",
            "--preset demo",
            "--preset straggler",
        ] {
            let err = parse_line(&format!("--method fedtiny {fleet}")).unwrap_err();
            assert!(fleet.split_whitespace().any(|t| err.contains(t)), "{err}");
        }
    }

    #[test]
    fn every_documented_method_parses() {
        for m in [
            "fedtiny",
            "vanilla",
            "adaptive_bn",
            "vanilla+prog",
            "small_model",
            "fedavg",
            "flpqsu",
            "snip",
            "synflow",
            "grasp",
            "prunefl",
            "feddst",
            "lotteryfl",
        ] {
            assert!(crate::help::RUN.contains(m), "{m} missing from ft help run");
            let parsed = parse_line(&format!("--method {m}")).expect(m);
            assert_eq!(parsed.method.name(), m);
        }
    }
}
