"""Both runners against the reference generation loop of ``brute_evolve``.

The reference repeats every step of a run without the package's loop,
memo or crossover, so any drift in the draws, the picks or the population
sizes shows as a different record, best schedule or best breakdown.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gantrysched import GaParams, ProblemSpec, run_classical, run_quantum

from brute_evolve import brute_evolve
from conftest import SMALL_SPECS

RUNNERS = {"classical": run_classical, "quantum": run_quantum}

RATIOS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))

PARAMS = st.builds(
    GaParams,
    r_s=RATIOS,
    r_c=RATIOS,
    r_m=RATIOS,
    r_r=RATIOS,
    n_ini=st.integers(2, 12),
    n_max=st.integers(2, 12),
    g_max=st.integers(0, 4),
    seed=st.integers(0, 2**64 - 1),
)

# No repair at all, and a cap of 3 that binds at every selection.
NO_REPAIR = GaParams(r_s=0.8, r_c=0.5, r_m=0.5, r_r=0.0, n_ini=8, n_max=8, g_max=4, seed=3)
CAPPED = GaParams(r_s=1.0, r_c=1.0, r_m=0.5, r_r=0.5, n_ini=12, n_max=3, g_max=4, seed=4)
SPEC = ProblemSpec(n_g=2, n_p=3, n_t=56)


@settings(max_examples=60, deadline=None)
@given(spec=SMALL_SPECS, params=PARAMS, algorithm=st.sampled_from(sorted(RUNNERS)))
@example(spec=SPEC, params=NO_REPAIR, algorithm="classical")
@example(spec=SPEC, params=NO_REPAIR, algorithm="quantum")
@example(spec=SPEC, params=CAPPED, algorithm="classical")
@example(spec=SPEC, params=CAPPED, algorithm="quantum")
def test_runners_match_reference_loop(spec, params, algorithm):
    result = RUNNERS[algorithm](spec, params)
    records, best_schedule, best_breakdown = brute_evolve(spec, params, algorithm)
    assert [(r.generation, r.best_fitness, r.population) for r in result.records] == records
    assert result.best_schedule == best_schedule
    got = result.best_breakdown
    assert {**got.counts(), "total": got.total} == best_breakdown
