"""Names, units, directions and bounds of every metric the benchmark reports.

Two vocabularies:

* `END_TO_END` is what `BENCHMARK.json` lists and what the last line of a
  plain run carries.  Every workload reports every one of these metrics, so
  they are defined per workload by the role of the operation
  (`run.end_to_end` says which operation fills each role; README.md has
  the table).
* `NAMED` holds each workload's own metrics under their descriptive names
  (`suite_full_s`, `verify_per_s.m512`, ...).  They are printed with median,
  high percentile and sample count, written to the `--out` record, and
  compared by `compare.py`.

`LAYER` lists the traced run's per-layer metrics, each with the end-to-end
metric and workload it should move.  Metric names must start with a letter
or digit, so the `_kernels` module's metrics are named `kernels.*`.
"""

from __future__ import annotations

# name -> (unit, better, bound as a share of the parent's median).  On a
# 2-vCPU Xeon VM shared with other tenants, the wall-clock timings of ten
# seeds per workload spread (IQR/median) 21-51% in a slow spell; scaled to a
# fixed machine speed (speed.py), the same runs spread 1.4-9.4%, set-up
# 9-20%.  The timing bounds are 0.25, the largest allowed, and set-up shares
# it.  Peak RSS repeats within 2%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "pass_s": ("s", "lower", 0.25),
    "short_op_ms": ("ms", "lower", 0.25),
    "long_op_ms": ("ms", "lower", 0.25),
}

# workload -> why it was chosen
WORKLOADS = {
    "suite-cli": "The README's main path: fresh `thetalab` CLI processes for a trivial query, "
    "`verify suite --level quick` and `--level full`, exit 0 and pass required.",
    "exact-enum": "Cold exhaustive enumeration in a fresh process (group_data, Heisenberg orbit "
    "and stabilizer sweeps), then seeded discriminant lookups; numeric layers idle.",
    "numeric-verify": "Warm numeric throughput in one process: verify_transformation at "
    "m=6/64/512, dense weil_rep at m=512 and theta_constants at Im tau in [0.1, 0.15].",
}

# workload -> name -> (unit, better, bound)
NAMED = {
    "suite-cli": {
        "setup_s": ("s", "lower", 0.25),
        "cli_start_s": ("s", "lower", 0.25),
        "suite_quick_s": ("s", "lower", 0.25),
        "suite_full_s": ("s", "lower", 0.25),
        "peak_rss_mb": ("MB", "lower", 0.1),
        "ops_failed_ratio": ("ratio", "lower", 0.0),
    },
    "exact-enum": {
        "setup_s": ("s", "lower", 0.25),
        "enum_s": ("s", "lower", 0.25),
        "disc_lookup_per_s": ("1/s", "higher", 0.25),
        "peak_rss_mb": ("MB", "lower", 0.1),
        "ops_failed_ratio": ("ratio", "lower", 0.0),
    },
    "numeric-verify": {
        "setup_s": ("s", "lower", 0.25),
        "verify_per_s.m6": ("1/s", "higher", 0.25),
        "verify_per_s.m64": ("1/s", "higher", 0.25),
        "verify_per_s.m512": ("1/s", "higher", 0.25),
        "weil_matrix_per_s.m512": ("1/s", "higher", 0.25),
        "theta_eval_per_s.m6": ("1/s", "higher", 0.25),
        "theta_eval_per_s.m512": ("1/s", "higher", 0.25),
        "peak_rss_mb": ("MB", "lower", 0.1),
        "ops_failed_ratio": ("ratio", "lower", 0.0),
    },
}

_SUITE_FULL = "suite_full_s (suite-cli)"
_ENUM = "enum_s and peak_rss_mb (exact-enum)"
_CHECKS = (
    "transformation_law",
    "discriminant_oracle",
    "stabilizer_sweeps",
    "descended_char",
    "stone_von_neumann",
    "descent_combinatorics",
    "metaplectic_weil",
    "cocycle_identities",
    "subgroup_indices",
)
_SELF_LAYERS = (
    "cli",
    "suite",
    "heisenberg",
    "symplectic4",
    "kernels",
    "weilrep",
    "thetanum",
    "metaplectic",
    "congruence",
    "schrodinger",
    "bench",
)

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER = {
    "cli.import_s": ("s", "lower", "cli_start_s and suite_quick_s (suite-cli)"),
    **{f"suite.{c}_s": ("s", "lower", _SUITE_FULL) for c in _CHECKS},
    "suite.quick_total_s": ("s", "lower", "suite_quick_s (suite-cli)"),
    "heisenberg.maximal_isotropic_subgroups.4-4_s": ("s", "lower", _ENUM),
    "heisenberg.maximal_isotropic_subgroups.4-4_count": ("count", "higher", _ENUM),
    "heisenberg.enumerate_sym_automorphisms.2-2_s": ("s", "lower", _ENUM + ", " + _SUITE_FULL),
    "heisenberg.enumerate_sym_automorphisms.2-2_count": ("count", "higher", _ENUM),
    "heisenberg.stabilizer_u0sym.2-2_s": ("s", "lower", _ENUM + ", " + _SUITE_FULL),
    "heisenberg.stabilizer_u0sym.2-2_count": ("count", "higher", _ENUM),
    "heisenberg.symmetric_splittings_over.2-2_s": ("s", "lower", _ENUM + ", " + _SUITE_FULL),
    "heisenberg.symmetric_splittings_over.2-2_count": ("count", "higher", _ENUM),
    **{
        f"symplectic4.group_data.{case}_{kind}": (unit, better, _ENUM)
        for case in ("g1-even", "g1-odd", "g2-even", "g2-odd")
        for kind, unit, better in (("s", "s", "lower"), ("order", "count", "higher"))
    },
    "symplectic4.discriminant.g2_us": ("us", "lower", "disc_lookup_per_s (exact-enum)"),
    "symplectic4.discriminant.g1_us": ("us", "lower", _SUITE_FULL),
    "kernels.mod4_products_s": ("s", "lower", "enum_s (exact-enum)"),
    "kernels.mod4_products_bytes": ("B", "lower", "enum_s (exact-enum)"),
    "kernels.pack_mod4_s": ("s", "lower", "enum_s (exact-enum)"),
    "kernels.pack_mod4_bytes": ("B", "lower", "enum_s (exact-enum)"),
    "kernels.theta_class_sums.m6_us": ("us", "lower", "theta_eval_per_s.m6 (numeric-verify)"),
    "kernels.theta_class_sums.m6_terms": ("count", "lower", "theta_eval_per_s.m6 (numeric-verify)"),
    "kernels.theta_class_sums.m512_us": ("us", "lower", "theta_eval_per_s.m512 (numeric-verify)"),
    "kernels.theta_class_sums.m512_terms": (
        "count",
        "lower",
        "theta_eval_per_s.m512 (numeric-verify)",
    ),
    "kernels.riemann_theta_sum_us": ("us", "lower", "suite_full_s and suite_quick_s (suite-cli)"),
    "weilrep.weil_rep.m6_us": ("us", "lower", "verify_per_s.m6 (numeric-verify)"),
    "weilrep.weil_rep.m64_us": ("us", "lower", "verify_per_s.m64 (numeric-verify)"),
    "weilrep.weil_rep.m512_ms": (
        "ms",
        "lower",
        "verify_per_s.m512 and weil_matrix_per_s.m512 (numeric-verify)",
    ),
    "weilrep.tokens_per_word": ("count", "lower", "verify_per_s.* (numeric-verify)"),
    "weilrep.first_call.m512_s": ("s", "lower", "setup_s (numeric-verify)"),
    "thetanum.theta_constants.m6_us": ("us", "lower", "theta_eval_per_s.m6 (numeric-verify)"),
    "thetanum.theta_constants.m512_us": ("us", "lower", "theta_eval_per_s.m512 (numeric-verify)"),
    "thetanum.verify_transformation.m6_us": ("us", "lower", "verify_per_s.m6 (numeric-verify)"),
    "thetanum.verify_transformation.m64_us": ("us", "lower", "verify_per_s.m64 (numeric-verify)"),
    "thetanum.verify_transformation.m512_ms": (
        "ms",
        "lower",
        "verify_per_s.m512 (numeric-verify)",
    ),
    "thetanum.radius.m6": ("count", "lower", "theta_eval_per_s.m6 (numeric-verify)"),
    "thetanum.radius.m512": ("count", "lower", "theta_eval_per_s.m512 (numeric-verify)"),
    "thetanum.halfform_cocycle_us": ("us", "lower", _SUITE_FULL),
    "thetanum.shimura_cocycle_us": ("us", "lower", _SUITE_FULL),
    **{
        f"metaplectic.{fn}_us": (
            "us",
            "lower",
            "verify_per_s.m6 (numeric-verify) and " + _SUITE_FULL,
        )
        for fn in ("mp_lift_word", "phi_eval", "mp_mul", "mp_from_word")
    },
    "metaplectic.mp_mul.w60_failed_ratio": (
        "ratio",
        "lower",
        "no end-to-end metric: the known mp_mul branch defect, kept visible",
    ),
    "congruence.sl2_with_entry_bound.40_s": ("s", "lower", _SUITE_FULL),
    "congruence.sl2_with_entry_bound.40_count": ("count", "higher", _SUITE_FULL),
    **{
        f"congruence.{fn}_us": ("us", "lower", _SUITE_FULL)
        for fn in ("member", "theta_action_factor", "splitting_action_factor")
    },
    "schrodinger.rho.2-2_us": ("us", "lower", _SUITE_FULL),
    "schrodinger.intertwiner_space.2-2_s": ("s", "lower", _SUITE_FULL),
    "schrodinger.invariant_subspace.2-2_us": ("us", "lower", _SUITE_FULL),
    **{
        f"{layer}.self_s": ("s", "lower", "the traced sweep's time in this layer")
        for layer in _SELF_LAYERS
    },
    "trace.spans": ("count", "lower", "tracing cost of the traced run"),
    "trace.traced_pass_s": ("s", "lower", "tracing overhead of the requested workload"),
    "trace.untraced_pass_s": ("s", "lower", "tracing overhead of the requested workload"),
    "trace.traced_over_untraced": ("ratio", "lower", "tracing overhead of the requested workload"),
}
