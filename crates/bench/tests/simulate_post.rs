//! The paper's Figure 1 pipeline end to end through the CLI: `simulate run
//! --log` writes the sampled log, `simulate post` reads it back and
//! post-processes it. Its per-mode lines must equal the same lines
//! formatted from the power model applied to an in-process run of the same
//! benchmark and configuration.

use std::process::Command;

use softwatt::{Benchmark, Mode, PowerModel, Simulator, SystemConfig};

fn simulate(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn post_of_a_written_log_matches_the_in_process_run() {
    let path = std::env::temp_dir().join(format!("softwatt-post-{}.csv", std::process::id()));
    let path_arg = path.to_str().expect("UTF-8 temp path");
    simulate(&["run", "jess", "--scale", "40000", "--log", path_arg]);
    let posted = simulate(&["post", path_arg]);
    let _ = std::fs::remove_file(&path);
    let printed: Vec<&str> = posted
        .lines()
        .filter(|line| line.contains(" cycles ") && line.contains(" avg "))
        .collect();

    let config = SystemConfig {
        time_scale: 40_000.0,
        ..SystemConfig::default()
    };
    let run = Simulator::new(config.clone())
        .unwrap()
        .run_benchmark(Benchmark::Jess);
    let table = PowerModel::new(&config.power_params()).mode_table(&run.log);
    let expected: Vec<String> = Mode::ALL
        .iter()
        .map(|&mode| {
            format!(
                "  {:<8} cycles {:>6.2}%  energy {:>6.2}%  avg {:>6.2} W",
                mode.label(),
                100.0 * table.cycle_fraction(mode),
                100.0 * table.energy_fraction(mode),
                table.average_power_w(mode).total()
            )
        })
        .collect();
    assert_eq!(printed, expected, "post output:\n{posted}");
}
