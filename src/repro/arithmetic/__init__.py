"""L-bit floating point arithmetic and error-bound machinery (Section VI)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".context": (
        "ArithmeticContext",
        "ExactContext",
        "LFloatArithmetic",
        "make_context",
        "recommended_precision",
    ),
    ".errors": (
        "compound_bound",
        "corollary1_error",
        "error_profile",
        "lemma1_bound",
        "max_relative_error",
        "relative_error",
        "theorem1_bound",
    ),
    ".lfloat": ("LFloat", "Rounding", "lfloat_sum"),
})
