"""Experiment helpers: table rendering and complexity fitting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".complexity": (
        "LinearFit",
        "linear_fit",
        "power_law_exponent",
        "rounds_per_node",
    ),
    ".runner": (
        "ExperimentRunner",
        "RunRecord",
        "default_max_workers",
        "run_many",
    ),
    ".tables": ("format_value", "print_table", "render_table"),
})
