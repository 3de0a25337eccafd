//! # manet-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! broadcast-storm paper's evaluation (§4). Each `figures::figNN` module
//! owns one figure: it names the figure's data points and runs them as
//! one [`sweep`] (in parallel across CPU cores), then renders text tables
//! plus CSV.
//!
//! Run via the `manet-experiments` binary:
//!
//! ```text
//! manet-experiments all --scale default
//! manet-experiments fig13 --scale full --csv results/
//! ```
//!
//! See `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record produced with this harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures {
    //! One module per reproduced figure.
    pub mod ext_capture;
    pub mod ext_churn;
    pub mod ext_distance;
    pub mod ext_hosts;
    pub mod ext_load;
    pub mod ext_mobility;
    pub mod ext_oracle;
    pub mod fig01;
    pub mod fig02;
    pub mod fig05;
    pub mod fig06;
    pub mod fig07;
    pub mod fig08;
    pub mod fig09;
    pub mod fig10;
    pub mod fig11;
    pub mod fig12;
    pub mod fig13;
}

pub mod claims;
mod metrics_out;
mod runner;
mod table;

pub use metrics_out::{render_metrics_json, Histogram};
pub use runner::{
    drain_metrics_capture, enable_metrics_capture, metrics_record, parallel_map, sweep,
    AveragedReport, MetricsRecord, RunMetricsSummary, Scale, Sweep, BASE_SEED, PAPER_MAPS,
};
pub use table::{pct, secs, Table};

/// A figure generator: takes a [`Scale`], returns rendered tables.
pub type FigureRunner = fn(Scale) -> Vec<Table>;

/// Every figure id the harness knows, with its runner.
pub fn all_figures() -> Vec<(&'static str, FigureRunner)> {
    vec![
        ("fig1", figures::fig01::run),
        ("fig2", figures::fig02::run),
        ("fig5a", figures::fig05::run_a),
        ("fig5b", figures::fig05::run_b),
        ("fig5c", figures::fig05::run_c),
        ("fig5d", figures::fig05::run_d),
        ("fig6", figures::fig06::run),
        ("fig7", figures::fig07::run),
        ("fig8", figures::fig08::run),
        ("fig9", figures::fig09::run),
        ("fig10", figures::fig10::run),
        ("fig11", figures::fig11::run),
        ("fig12", figures::fig12::run),
        ("fig13", figures::fig13::run),
        ("ext-distance", figures::ext_distance::run),
        ("ext-oracle", figures::ext_oracle::run),
        ("ext-capture", figures::ext_capture::run),
        ("ext-mobility", figures::ext_mobility::run),
        ("ext-load", figures::ext_load::run),
        ("ext-hosts", figures::ext_hosts::run),
        ("ext-churn", figures::ext_churn::run),
        ("claims", claims::run),
    ]
}
