"""Section IX lower-bound constructions and communication-cut analysis."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bc_gadget": ("BCGadget", "build_bc_gadget"),
    ".cut": (
        "ReductionOutcome",
        "cut_capacity_per_round",
        "disjointness_bits_lower_bound",
        "information_lower_bound_rounds",
        "optimality_gap",
        "solve_disjointness_via_bc",
        "theorem_lower_bound",
    ),
    ".diameter_gadget": ("DiameterGadget", "build_diameter_gadget"),
    ".two_party": (
        "ExchangeEverythingDisjointness",
        "GadgetSimulationReport",
        "TwoPartyProtocol",
        "deterministic_disjointness_bound",
        "encode_family",
        "simulate_gadget_protocol",
    ),
    ".subsets": (
        "Subset",
        "all_half_subsets",
        "families_intersect",
        "family_pair",
        "half_size",
        "minimal_m",
        "random_family",
        "subset_rank",
        "subset_unrank",
    ),
})
