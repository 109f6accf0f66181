#![warn(missing_docs)]

//! Experiment harness reproducing the SMRP paper's evaluation (§4).
//!
//! Every figure of the paper maps to one module/binary pair; each binary
//! runs at paper scale, or with `--quick` at a fifth of the samples:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Figure 7 (local vs global detour scatter) | [`fig7`] | `fig7` |
//! | Figure 8 (effect of `D_thresh`) | [`fig8`] | `fig8` |
//! | Figure 9 (effect of `α` / node degree) | [`fig9`] | `fig9` |
//! | Figure 10 (effect of group size `N_G`) | [`fig10`] | `fig10` |
//! | §1 motivation: restoration latency | [`latency`] | `latency` |
//! | §3.3.3 hierarchical confinement (Fig. 6) | [`hierarchy_exp`] | `hierarchy` |
//! | Design-choice ablations | [`ablation`] | `ablation` |
//!
//! Shared infrastructure: [`scenario`] generates seeded (topology,
//! member-set) pairs exactly as §4.1 describes (GT-ITM-style Waxman
//! topologies, random member selection); [`measure`] runs the §4.2/§4.3.1
//! measurement kernel (build SMRP and SPF trees, apply each member's
//! worst-case failure, record recovery distances, delays and tree costs).
//!
//! All experiments are deterministic for a fixed base seed and emit both a
//! human-readable report and CSV/JSON artifacts under `results/`: each
//! binary's body is one function in [`cli`], and `--bin all` runs them
//! all.

pub mod ablation;
pub mod baselines;
pub mod churn;
pub mod cli;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hierarchy_exp;
pub mod latency;
pub mod measure;
pub mod node_failures;
pub mod overhead;
pub mod proactive;
pub mod realnet;
pub mod report;
pub mod scalability;
pub mod scenario;
pub mod sweep;

pub use measure::{MemberOutcome, ScenarioOutcome};
pub use scenario::{Scenario, ScenarioConfig};

/// Effort level of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Paper-scale sample counts (the defaults of §4.3).
    #[default]
    Paper,
    /// A fifth of the paper's sample counts (`--bin <figure> --quick`).
    Quick,
}

impl Effort {
    /// Parses `--quick` from process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Effort::Quick
        } else {
            Effort::Paper
        }
    }

    /// Scales a paper-scale count down in quick mode.
    pub fn scale(&self, paper_count: usize) -> usize {
        match self {
            Effort::Paper => paper_count,
            Effort::Quick => (paper_count / 5).max(1),
        }
    }
}

/// Default directory for experiment artifacts.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("SMRP_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Prints an experiment's `text`, then writes its CSV — and its JSON, for
/// the experiments that have one — as `<stem>.csv` and `<stem>.json` under
/// [`results_dir`]. Each written file is announced on stdout; a failed
/// write is reported on stderr and does not stop the run.
pub fn publish<T: serde::Serialize + ?Sized>(
    text: &str,
    stem: &str,
    csv: &smrp_metrics::csvout::Csv,
    json: Option<&T>,
) {
    print!("{text}");
    let announce = |path: &std::path::Path, written: std::io::Result<()>| match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    };
    let path = results_dir().join(format!("{stem}.csv"));
    announce(&path, csv.write_to(&path));
    if let Some(value) = json {
        let path = results_dir().join(format!("{stem}.json"));
        announce(&path, report::write_json(&path, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scales_counts() {
        assert_eq!(Effort::Paper.scale(10), 10);
        assert_eq!(Effort::Quick.scale(10), 2);
        assert_eq!(Effort::Quick.scale(3), 1, "quick never drops to zero");
        assert_eq!(Effort::Quick.scale(0), 1);
    }

    #[test]
    fn results_dir_honors_env_override() {
        // Serialize access to the env var within this process.
        let default = results_dir();
        assert_eq!(default, std::path::PathBuf::from("results"));
        std::env::set_var("SMRP_RESULTS_DIR", "/tmp/smrp-custom");
        assert_eq!(results_dir(), std::path::PathBuf::from("/tmp/smrp-custom"));
        std::env::remove_var("SMRP_RESULTS_DIR");
    }

    #[test]
    fn default_effort_is_paper() {
        assert_eq!(Effort::default(), Effort::Paper);
    }
}
