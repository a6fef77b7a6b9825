//! Runs the paper's tables, figures and ablations in one process, in
//! registry order, each followed by its wall time, `# <name>: <s> s`.
//!
//! Usage: `all_experiments [quick] [--profile] [name ...]`
//!
//! * `quick` runs at the smoke size CI diffs against the golden file;
//!   without it, at full size. There is no other size.
//! * Names run only those harnesses, still in registry order.
//! * `--profile` adds `ablation_btree`'s live per-engine profile.
//!
//! Anything else exits with status 2 and lists the harness names.

use std::time::Instant;

use widx_bench::grid::{Grid, Size};
use widx_bench::{ablations, HARNESSES};

/// Parses the arguments into `(quick, profile, names)`, the names in
/// registry order (every harness when none is given).
fn parse(args: &[&str]) -> Result<(bool, bool, Vec<&'static str>), String> {
    let (mut quick, mut profile, mut picked) = (false, false, Vec::new());
    for &arg in args {
        match arg {
            "quick" => quick = true,
            "--profile" => profile = true,
            name if HARNESSES.iter().any(|h| h.0 == name) => picked.push(name),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let names = HARNESSES.map(|h| h.0).into_iter();
    let names: Vec<_> = names
        .filter(|n| picked.is_empty() || picked.contains(n))
        .collect();
    if profile && !names.contains(&"ablation_btree") {
        return Err("`--profile` profiles `ablation_btree`, which is not selected".into());
    }
    Ok((quick, profile, names))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let (quick, profile, names) = parse(&argv).unwrap_or_else(|e| {
        eprintln!(
            "all_experiments: {e}\nusage: all_experiments [quick] [--profile] [name ...]\n\
             names: {}",
            HARNESSES.map(|h| h.0).join(" ")
        );
        std::process::exit(2);
    });
    let mut grid = Grid::new(if quick { Size::QUICK } else { Size::FULL });
    for (name, arg, run) in HARNESSES.iter().filter(|h| names.contains(&h.0)) {
        let rule = "#".repeat(72);
        println!("\n{rule}\n# {name} {}\n{rule}", arg(&grid.size));
        let started = Instant::now();
        run(&mut grid);
        if profile && *name == "ablation_btree" {
            ablations::btree_engine_profile(grid.size.dss_probes);
        }
        println!("# {name}: {:.2} s", started.elapsed().as_secs_f64());
    }
    println!("\nall experiments completed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_arguments_run_everything_at_full_size() {
        let (quick, profile, names) = parse(&[]).unwrap();
        assert!(!quick && !profile);
        assert_eq!(names, HARNESSES.map(|h| h.0));
    }

    #[test]
    fn quick_with_names_runs_those_in_registry_order() {
        let (quick, profile, names) = parse(&["fig9_dss", "quick", "table1_isa"]).unwrap();
        assert!(quick && !profile);
        assert_eq!(names, ["table1_isa", "fig9_dss"]);
    }

    #[test]
    fn profile_goes_with_ablation_btree() {
        let (quick, profile, names) = parse(&["quick", "ablation_btree", "--profile"]).unwrap();
        assert!(quick && profile);
        assert_eq!(names, ["ablation_btree"]);
        assert!(parse(&["--profile"]).unwrap().1);
        assert!(parse(&["fig8_hashjoin", "--profile"]).is_err());
    }

    #[test]
    fn unknown_arguments_are_refused() {
        for bad in ["quik", "--quick", "2048", "fig8"] {
            let err = parse(&["quick", bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
