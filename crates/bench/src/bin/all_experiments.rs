//! Runs every experiment harness in sequence — the paper's tables,
//! figures and ablations — each followed by its wall time, `# <name>: <s> s`.
//!
//! Usage: `all_experiments [quick]` — `quick` shrinks workload sizes
//! for a fast smoke run.

use std::process::Command;

fn main() {
    let quick = std::env::args().nth(1).is_some_and(|a| a == "quick");
    let (kernel_probes, dss_probes, fig2_scale) = if quick {
        ("2048", "2048", "0.05")
    } else {
        ("16384", "12288", "1.0")
    };

    let exe = std::env::current_exe().expect("current exe path");
    let bin_dir = exe.parent().expect("bin dir").to_path_buf();
    let run = |name: &str, args: &[&str]| {
        println!(
            "\n{}\n# {name} {}\n{}",
            "#".repeat(72),
            args.join(" "),
            "#".repeat(72)
        );
        let started = std::time::Instant::now();
        let status = Command::new(bin_dir.join(name))
            .args(args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} failed with {status}");
        println!("# {name}: {:.2} s", started.elapsed().as_secs_f64());
    };

    run("table1_isa", &[]);
    run("table2_params", &[]);
    run("fig2_breakdown", &[fig2_scale]);
    run("fig4_bottlenecks", &[]);
    run("fig5_utilization", &[]);
    run("fig8_hashjoin", &[kernel_probes]);
    run("fig9_dss", &[dss_probes]);
    run("fig10_speedup", &[dss_probes]);
    run("fig11_energy", &[dss_probes]);
    run("table3_area", &[]);
    run("ablation_dispatcher", &[kernel_probes]);
    run("ablation_queue_depth", &[kernel_probes]);
    run("ablation_llc_widx", &[kernel_probes]);
    run("ablation_touch", &[kernel_probes]);
    run("ablation_btree", &[dss_probes]);
    run("ablation_skew", &[kernel_probes]);
    println!("\nall experiments completed");
}
