//! What each experiment binary prints and writes.
//!
//! One function per binary: it runs the experiment and hands its text and
//! artifacts to `publish`. Each `--bin <name>` calls its function;
//! `--bin all` calls every function in [`ALL`], so the full evaluation
//! prints the same blocks and writes the same files as the 14 binaries.

use crate::{
    ablation, baselines, churn, fig10, fig7, fig8, fig9, hierarchy_exp, latency, node_failures,
    overhead, proactive, publish, realnet, scalability, Effort,
};

/// For [`publish`] calls of experiments that write no JSON.
const NO_JSON: Option<&str> = None;

/// Every experiment binary's body, in the order `--bin all` runs them.
pub const ALL: [fn(Effort); 14] = [
    fig7,
    fig8,
    fig9,
    fig10,
    latency,
    hierarchy,
    ablation,
    baselines,
    overhead,
    proactive,
    realnet,
    node_failures,
    churn,
    scalability,
];

/// Figure 7: local vs global detour recovery-distance scatter.
pub fn fig7(effort: Effort) {
    let r = fig7::run(effort);
    let text = format!("{}\n{}\n", r.plot(), r.summary());
    publish(&text, "fig7_detour_scatter", &r.to_csv(), Some(&r));
}

/// Figure 8: the effect of `D_thresh`.
pub fn fig8(effort: Effort) {
    let r = fig8::run(effort);
    println!("Figure 8: effect of D_thresh (N=100, N_G=30, alpha=0.2)\n");
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "fig8_dthresh", &r.to_csv(), Some(&r));
}

/// Figure 9: the effect of `α` (average node degree).
pub fn fig9(effort: Effort) {
    let r = fig9::run(effort);
    println!("Figure 9: effect of alpha (N=100, N_G=30, D_thresh=0.3)\n");
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "fig9_alpha", &r.to_csv(), Some(&r));
}

/// Figure 10: the effect of group size `N_G`.
pub fn fig10(effort: Effort) {
    let r = fig10::run(effort);
    println!("Figure 10: effect of N_G (N=100, alpha=0.2, D_thresh=0.3)\n");
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "fig10_group_size", &r.to_csv(), Some(&r));
}

/// Protocol-level restoration latency, local vs global detour (§1).
pub fn latency(effort: Effort) {
    let r = latency::run(effort);
    println!("Service restoration latency: local vs global detour\n");
    let text = format!("{}\n{}\n{}\n", r.table(), r.histogram_text(), r.summary());
    publish(&text, "latency", &r.to_csv(), NO_JSON);
}

/// Hierarchical recovery confinement (§3.3.3), 2-level and 3-level.
pub fn hierarchy(effort: Effort) {
    let r = hierarchy_exp::run(effort);
    println!("Hierarchical recovery confinement (2-level transit-stub)\n");
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "hierarchy", &r.to_csv(), NO_JSON);
    let n = hierarchy_exp::run_nlevel(effort);
    println!("\nN-level generalization (3 levels)\n");
    println!("{}\n{}", n.table(), n.summary());
}

/// Design-choice ablations (reshaping, query scheme, thresholds).
pub fn ablation(effort: Effort) {
    let r = ablation::run(effort);
    println!("Ablations (N=100, N_G=30, alpha=0.2, D_thresh=0.3)\n");
    let text = format!("{}\n", r.table());
    publish(&text, "ablation", &r.to_csv(), NO_JSON);
}

/// SPF vs Steiner vs SMRP tree baselines.
pub fn baselines(effort: Effort) {
    let r = baselines::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "baselines", &r.to_csv(), NO_JSON);
}

/// Steady-state control-plane overhead (§3.3.2).
pub fn overhead(effort: Effort) {
    let r = overhead::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "overhead", &r.to_csv(), NO_JSON);
}

/// Proactive backups vs reactive detours.
pub fn proactive(effort: Effort) {
    let r = proactive::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "proactive", &r.to_csv(), NO_JSON);
}

/// Real backbone topologies.
pub fn realnet(effort: Effort) {
    let r = realnet::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "realnet", &r.to_csv(), NO_JSON);
}

/// Node failures (router crashes).
pub fn node_failures(effort: Effort) {
    let r = node_failures::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "node_failures", &r.to_csv(), NO_JSON);
}

/// Membership churn and reshaping.
pub fn churn(effort: Effort) {
    let r = churn::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "churn", &r.to_csv(), NO_JSON);
}

/// Scalability with the network size `N`.
pub fn scalability(effort: Effort) {
    let r = scalability::run(effort);
    let text = format!("{}\n{}\n", r.table(), r.summary());
    publish(&text, "scalability", &r.to_csv(), NO_JSON);
}
