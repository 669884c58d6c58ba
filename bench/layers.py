"""The layers the tracer wraps, and what each per-layer metric should move.

A layer is one `sfcomp` module. Each hook names the module that defines an
entry point and the attribute to wrap there; the tracer then rebinds every
`sfcomp` module that imported the same function by name. A hook whose
attribute is gone (a later refactor renamed or deleted it) is reported as a
missing layer and its metrics are left out; it never stops the run.
"""

from __future__ import annotations

# (layer name, defining module, attribute, kind). A "span" is timed; a "count"
# is only counted (seeding.uniforms runs once per restart); the "restart" hook
# `_coordinate_descent` is one restart span and also yields the search
# objective it is handed as its own span.
HOOKS = (
    ("probability.JointDist", "probability", "JointDist.__post_init__", "span"),
    ("probability.marginal", "probability", "JointDist.marginal", "span"),
    ("probability.entropy", "probability", "entropy", "span"),
    ("probability.compose", "probability", "compose", "span"),
    ("probability.mixture", "probability", "mixture", "span"),
    ("probability.cond_mutual_info", "probability", "cond_mutual_info", "span"),
    ("probability.push_function", "probability", "push_function", "span"),
    ("models.parse_model_text", "models", "parse_model_text", "span"),
    ("models.admissibility_gap", "models", "admissibility_gap", "span"),
    ("regions.optimal_g", "regions", "optimal_g", "span"),
    ("regions.corner", "regions", "_corner_rates", "span"),
    ("regions.restart", "regions", "_coordinate_descent", "restart"),
    ("regions.membership", "regions", "membership", "span"),
    ("regions.trace_boundary", "regions", "trace_boundary", "span"),
    ("multifunction.build_multi_joint", "multifunction", "build_multi_joint", "span"),
    ("multifunction.multi_rates", "multifunction", "_multi_rates", "span"),
    ("multifunction.multi_chain_report", "multifunction", "multi_chain_report", "span"),
    ("multifunction.eval_inner_mf", "multifunction", "eval_inner_mf", "span"),
    ("multifunction.eval_outer_mf", "multifunction", "eval_outer_mf", "span"),
    ("seeding.uniforms", "seeding", "uniforms", "count"),
)
OBJECTIVE = "regions.objective"  # derived from the regions.restart hook

# Which end-to-end metric each layer metric should move, and on which workload.
# The metric names and units are in BENCHMARK.json `per_layer`; values are per
# pass of the workload's operation list, and `calls` and `cells` repeat
# exactly for one seed.
# `cells` is the size of the table a marginal is taken of, of the marginal an
# entropy sums over, and of the joint build_multi_joint returns. Cells are
# float64, so computed bytes are 8 x cells; no bandwidth ratio is reported
# because the largest tables (17 MB) sit between L2 and L3.
LAYER_MAP = {
    "probability.JointDist.{calls,self_s}":
        ("wall_s, cpu_s", "search-lossless and trace-lossy (thousands of tiny joints); "
                          "about flat on multi-dense"),
    "probability.{marginal,entropy}.{calls,self_s,cells}":
        ("wall_s and peak_rss_mb on multi-dense; wall_s on the search workloads",
         "all three"),
    "probability.{compose,mixture,cond_mutual_info,push_function}.{calls,self_s}":
        ("wall_s", "search-lossless and trace-lossy"),
    "models.admissibility_gap.{calls,self_s}":
        ("wall_s", "search-lossless only (no calls on trace-lossy)"),
    "models.parse_model_text.self_s": ("setup_s", "all three"),
    "regions.optimal_g.{calls,self_s}": ("wall_s", "trace-lossy only"),
    "regions.corner.{calls,self_s}": ("wall_s", "search-lossless and trace-lossy"),
    "regions.objective.{calls,self_s,mean_ms}": ("wall_s", "search-lossless and trace-lossy"),
    "regions.objective.accept_ratio":
        ("oracle_gap_bits, found_frac, wall_s", "search-lossless and trace-lossy"),
    "regions.restart.{calls,self_s}": ("wall_s", "search-lossless and trace-lossy"),
    "regions.{membership,trace_boundary}.{calls,self_s}":
        ("wall_s (entry points; self time is their own bookkeeping)",
         "search-lossless and trace-lossy"),
    "multifunction.build_multi_joint.{calls,self_s,cells}":
        ("wall_s, peak_rss_mb", "multi-dense"),
    "multifunction.multi_rates.{calls,self_s}": ("wall_s", "multi-dense"),
    "multifunction.multi_chain_report.{calls,self_s}":
        ("wall_s", "multi-dense; a factorized inner bound should leave it flat"),
    "multifunction.{eval_inner_mf,eval_outer_mf}.{calls,self_s}": ("wall_s", "multi-dense"),
    "seeding.uniforms.calls": ("none (count only)", "search-lossless and trace-lossy"),
    "trace.overhead_frac": ("none (traced wall_s / untraced wall_s - 1)", "all three"),
}
