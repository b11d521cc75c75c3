"""The per-job answer check that feeds the benchmark's failure count."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

#: The simulated counts every job of a run must repeat exactly.
COUNT_KEYS = ("rounds", "bits", "messages", "max_edge_bits")


def job_counts(result) -> Dict[str, int]:
    """A result's simulated counts under the benchmark's metric names."""
    stats = result.stats
    return {
        "rounds": stats.rounds,
        "bits": stats.bit_count,
        "messages": stats.message_count,
        "max_edge_bits": stats.max_edge_bits_per_round,
    }


def max_rel_err(measured: Mapping[int, float], reference: Mapping) -> float:
    """max over nodes of |BC - exact| / exact (nodes with exact 0 must be 0)."""
    from repro.arithmetic.errors import max_relative_error

    return max_relative_error(measured, reference)


class AnswerCheck:
    """Judges every job of a run against references computed once.

    A job fails when it raised, ran on another engine than the
    workload's, reports an incomplete run, changes a simulated count
    from the run's first job, leaves the Theorem 1 envelope around exact
    Brandes, or -- when ``clean`` is given -- differs by a single bit
    from the fault-free betweenness of the same graph.
    """

    def __init__(
        self,
        reference: Mapping,
        engine: str,
        clean: Optional[Mapping[int, float]] = None,
    ):
        self.reference = reference
        self.engine = engine
        self.clean = clean
        self.counts: Optional[Dict[str, int]] = None

    def failures(self, result) -> List[str]:
        """Why ``result`` is wrong (empty when it passes)."""
        from repro.arithmetic.errors import theorem1_bound

        found = []
        engine = result.stats.engine
        if engine != self.engine:
            found.append(
                "ran on engine {!r}, expected {!r}".format(engine, self.engine)
            )
        if not result.completeness.complete:
            found.append("incomplete run")
        counts = job_counts(result)
        if self.counts is None:
            self.counts = counts
        for key in COUNT_KEYS:
            if counts[key] != self.counts[key]:
                found.append(
                    "{} = {} differs from the first job's {}".format(
                        key, counts[key], self.counts[key]
                    )
                )
        precision = int(result.arithmetic.split("-", 1)[1])
        bound = theorem1_bound(
            precision, result.graph.num_nodes, result.diameter
        )
        error = max_rel_err(result.betweenness, self.reference)
        if not error <= bound:
            found.append(
                "BC error {:.3e} outside the Theorem 1 bound {:.3e}".format(
                    error, bound
                )
            )
        if self.clean is not None and result.betweenness != self.clean:
            found.append("BC differs from the fault-free run")
        return found
