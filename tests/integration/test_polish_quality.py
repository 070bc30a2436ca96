"""Fit quality of the variable-projection polish (``--runslow``).

Cold fits of the 11 smooth registry activations x {8, 16} breakpoints at
the default :class:`~repro.core.fit.FitConfig` must match the grid MSE
of the joint L-BFGS polish that preceded variable projection (one
L-BFGS-B over breakpoints, values and free slopes together): each pair
within 0.1%, and no worse in the geometric mean of either budget.
"""

import math

import pytest

from repro.api import FitRequest, Session

#: Grid MSE per (function, budget) under the joint polish.
JOINT_POLISH_MSE = {
    ("elu", 8): 1.959275654470638e-06,
    ("elu", 16): 1.2491923490020283e-07,
    ("exp", 8): 4.655987132345312e-06,
    ("exp", 16): 2.7006637577835664e-07,
    ("gelu", 8): 6.5331980686654915e-06,
    ("gelu", 16): 5.254914458549915e-07,
    ("gelu_tanh", 8): 6.493151733556086e-06,
    ("gelu_tanh", 16): 5.199222319872783e-07,
    ("hardswish", 8): 3.201733621411395e-05,
    ("hardswish", 16): 1.5080251183950334e-06,
    ("mish", 8): 2.0315385286521235e-05,
    ("mish", 16): 1.6702584356161612e-06,
    ("selu", 8): 7.5612432063595485e-06,
    ("selu", 16): 4.2251308418351086e-07,
    ("sigmoid", 8): 6.836395047696119e-06,
    ("sigmoid", 16): 5.244345399416489e-07,
    ("silu", 8): 3.539981163531633e-05,
    ("silu", 16): 2.6558183160452824e-06,
    ("softplus", 8): 2.361073633861974e-05,
    ("softplus", 16): 1.6150906278294714e-06,
    ("tanh", 8): 1.3695255024901953e-05,
    ("tanh", 16): 1.0653463806017927e-06,
}


def _geomean(values):
    values = list(values)
    return math.exp(sum(math.log(x) for x in values) / len(values))


@pytest.mark.slow
def test_cold_fit_mse_matches_the_joint_polish():
    pairs = list(JOINT_POLISH_MSE)
    with Session(engine="inline", use_cache=False) as session:
        arts = session.fit([FitRequest.create(fn, n) for fn, n in pairs])
    got = {pair: art.grid_mse for pair, art in zip(pairs, arts)}
    assert all(art.init_used != "warm" for art in arts)

    worse = {f"{fn}@{n}": got[fn, n] / ref
             for (fn, n), ref in JOINT_POLISH_MSE.items()
             if got[fn, n] > 1.001 * ref}
    assert not worse, f"grid MSE above 1.001x the joint polish: {worse}"
    for budget in (8, 16):
        mine = [pair for pair in pairs if pair[1] == budget]
        assert (_geomean(got[p] for p in mine)
                <= _geomean(JOINT_POLISH_MSE[p] for p in mine))
