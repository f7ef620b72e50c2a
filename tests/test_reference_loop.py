"""Both runners against the reference generation loop of ``brute_evolve``.

The reference repeats every step of a run without the package's loop,
arena or crossover, so any drift in the draws, the picks or the population
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
# A population that doubles from 2 up to the cap, and one that halves to 2.
GROWING = GaParams(r_s=1.0, r_c=1.0, r_m=0.5, r_r=0.5, n_ini=2, n_max=12, g_max=4, seed=5)
SHRINKING = GaParams(r_s=0.5, r_c=0.0, r_m=0.5, r_r=0.5, n_ini=12, n_max=12, g_max=4, seed=6)
SPEC = ProblemSpec(n_g=2, n_p=3, n_t=56)
# Patient counts at the edges of the classical arena's int8, int16 and int32 ids.  At
# seed 66 the classical best schedules of 128 and 129 patients hold ids 127 and 128.
WIDE = GaParams(r_s=1.0, r_c=1.0, r_m=0.5, r_r=0.5, n_ini=2, n_max=2, g_max=2, seed=66)
INT8, INT16 = ProblemSpec(n_g=2, n_p=128, n_t=30), ProblemSpec(n_g=2, n_p=32_768, n_t=30)
PAST_INT8, PAST_INT16 = ProblemSpec(n_g=2, n_p=129, n_t=30), ProblemSpec(n_g=2, n_p=32_769, n_t=30)


@settings(max_examples=60, deadline=None)
@given(spec=SMALL_SPECS, params=PARAMS, algorithm=st.sampled_from(sorted(RUNNERS)))
@example(spec=SPEC, params=NO_REPAIR, algorithm="classical")
@example(spec=SPEC, params=NO_REPAIR, algorithm="quantum")
@example(spec=SPEC, params=CAPPED, algorithm="classical")
@example(spec=SPEC, params=CAPPED, algorithm="quantum")
@example(spec=SPEC, params=GROWING, algorithm="classical")
@example(spec=SPEC, params=GROWING, algorithm="quantum")
@example(spec=SPEC, params=SHRINKING, algorithm="classical")
@example(spec=SPEC, params=SHRINKING, algorithm="quantum")
@example(spec=INT8, params=WIDE, algorithm="classical")
@example(spec=INT8, params=WIDE, algorithm="quantum")
@example(spec=PAST_INT8, params=WIDE, algorithm="classical")
@example(spec=PAST_INT8, params=WIDE, algorithm="quantum")
@example(spec=INT16, params=WIDE, algorithm="classical")
@example(spec=INT16, params=WIDE, algorithm="quantum")
@example(spec=PAST_INT16, params=WIDE, algorithm="classical")
@example(spec=PAST_INT16, params=WIDE, algorithm="quantum")
def test_runners_match_reference_loop(spec, params, algorithm):
    result = RUNNERS[algorithm](spec, params)
    records, best_schedule, best_breakdown = brute_evolve(spec, params, algorithm)
    assert [(r.generation, r.best_fitness, r.population) for r in result.records] == records
    assert result.best_schedule == best_schedule
    got = result.best_breakdown
    assert {**got.counts(), "total": got.total} == best_breakdown
