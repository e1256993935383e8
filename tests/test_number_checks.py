"""Every numeric config field and argument is checked once, by ``check_number``.

One table lists each field or argument with the name its ConfigError uses
and its allowed range, written as the message writes it. From each row
come the refusals: a bool, a string, NaN, a fraction where an integer is
meant, an integer beyond float range where a real is meant, and a value
just past each finite bound (or at an open one); and
the acceptances: each closed bound itself.
"""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from fuselab import (
    Dim3,
    FusionConfig,
    GridKind,
    PhantomSpec,
    RaterParams,
    RaterSpec,
    SoftMaskConfig,
    connected_components,
    m_step,
    mc_soft_e_step_voxel,
    posterior_voxel,
    precision_recall,
    run_em,
    soften_votes,
)
from fuselab import softmask
from fuselab.errors import ConfigError, check_number
from helpers import grid, random_binary_stack, stack_from_rows


class Arg(NamedTuple):
    name: str  # as the ConfigError names it
    call: Callable  # runs the check on one value
    range: str | None = None  # as the message writes it; None: any value
    integral: bool = False


def _mask():
    return grid([1.0, 0.0, 0.0, 1.0])


def _phantom(**kw):
    PhantomSpec(**{"dims": Dim3(8, 8, 8), "lesions": (((4, 4, 4), 2.0),), **kw})


def _rater(**kw):
    RaterSpec("r", **{"sens": 0.9, "spec": 0.9, **kw})


def _mc(**kw):
    mc_soft_e_step_voxel([0.5, 1.0], RaterParams([0.9, 0.8], [0.9, 0.8]), 0.3,
                         **{"samples": 4, "seed": 0, **kw})


# Seeds and stream indices: one 64-bit Philox key word each.
SEEDS = "[0, 18446744073709551616)"
# Monte Carlo sample counts: numpy's multinomial takes an int64 count.
SAMPLES = "[1, 9223372036854775808)"

ARGS = [
    Arg("init_sens", lambda v: FusionConfig(init_sens=v), "[0, 1]"),
    Arg("init_spec", lambda v: FusionConfig(init_spec=v), "[0, 1]"),
    Arg("tol", lambda v: FusionConfig(tol=v), "(0, inf]"),
    Arg("max_iters", lambda v: FusionConfig(max_iters=v), "[1, inf]", True),
    Arg("mc_samples", lambda v: FusionConfig(mc_samples=v), SAMPLES, True),
    Arg("mc_seed", lambda v: FusionConfig(mc_seed=v), SEEDS, True),
    Arg("gamma", lambda v: SoftMaskConfig(gamma=v), "(0, 1)"),
    Arg("target_volume_ratio", lambda v: SoftMaskConfig(target_volume_ratio=v), "[1, inf]"),
    Arg("threshold_value", lambda v: SoftMaskConfig(threshold_value=v), "[0, 100]"),
    Arg("threshold_value",
        lambda v: SoftMaskConfig(threshold_mode="fixed", threshold_value=v),
        "[-inf, inf]"),
    Arg("max_dilation_iters", lambda v: SoftMaskConfig(max_dilation_iters=v), "[1, inf]", True),
    Arg("background_intensity", lambda v: _phantom(background_intensity=v), "(-inf, inf)"),
    Arg("lesion_intensity", lambda v: _phantom(lesion_intensity=v), "(-inf, inf)"),
    Arg("intensity_noise_sd", lambda v: _phantom(intensity_noise_sd=v), "[0, inf)"),
    Arg("seed", lambda v: _phantom(seed=v), SEEDS, True),
    Arg("lesion center coordinate", lambda v: _phantom(lesions=(((4, v, 4), 2.0),)),
        "(-inf, inf)"),
    Arg("lesion radius", lambda v: _phantom(lesions=(((4, 4, 4), v),)), "[0, inf)"),
    Arg("rater 'r': sens", lambda v: _rater(sens=v), "(0.5, 1)"),
    Arg("rater 'r': spec", lambda v: _rater(spec=v), "(0.5, 1)"),
    Arg("rater 'r': seed", lambda v: _rater(seed=v), SEEDS, True),
    Arg("rater 'r': boundary_softening", lambda v: _rater(boundary_softening=v), "[0, 1)"),
    Arg("blur", lambda v: soften_votes(stack_from_rows([[1.0, 0.0]]), v), "[0, 0.5)"),
    Arg("threshold", lambda v: precision_recall(_mask(), _mask(), v), "(0, 1)"),
    Arg("samples", lambda v: _mc(samples=v), SAMPLES, True),
    Arg("seed", lambda v: _mc(seed=v), SEEDS, True),
    Arg("voxel_index", lambda v: _mc(voxel_index=v), SEEDS, True),
]


def _bounds(text):
    """(value, closed) for each end of a range written like "[0, 1)"."""
    lo, hi = text[1:-1].split(", ")
    return (float(lo), text[0] == "["), (float(hi), text[-1] == "]")


def _refusals(arg):
    """(label, value, message) for each value the row must refuse."""
    noun = "an integer" if arg.integral else "a number"
    wrong_type = f"must be {noun}, got"
    cases = [("bool", True, wrong_type), ("str", "1", wrong_type)]
    if arg.integral:
        cases += [("fraction", 1.5, wrong_type), ("nan", math.nan, wrong_type)]
    elif arg.range:
        cases.append(("nan", math.nan, f"must lie in {arg.range}, got nan"))
    if not arg.integral:  # an int no float holds, though it compares within any bound
        cases.append(("beyond-float", 10**400, "must be a number within float range"))
    if arg.range:
        ends = zip(("low", "high"), _bounds(arg.range), (-math.inf, math.inf))
        for side, (bound, closed), away in ends:
            if closed and math.isinf(bound):
                continue  # nothing lies past a closed infinite end
            if closed:  # the nearest value outside
                bound = bound + math.copysign(1, away) if arg.integral else np.nextafter(bound, away)
            value = int(bound) if arg.integral else float(bound)
            cases.append((side, value, f"must lie in {arg.range}, got"))
    return cases


def _edges(arg):
    """The closed ends of the row's range, which it must accept."""
    if not arg.range:
        return []
    return [int(b) if arg.integral else b for b, closed in _bounds(arg.range)
            if closed and (math.isfinite(b) or not arg.integral)]


@pytest.mark.parametrize("arg, value, message", [
    pytest.param(arg, value, message, id=f"{arg.name}[{arg.range}]-{label}")
    for arg in ARGS for label, value, message in _refusals(arg)
])
def test_refusal_names_the_argument_and_its_range(arg, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(arg.name)} {re.escape(message)}"):
        arg.call(value)


@pytest.mark.parametrize("arg, value", [
    pytest.param(arg, value, id=f"{arg.name}[{arg.range}]={value}")
    for arg in ARGS for value in _edges(arg)
])
def test_closed_bound_is_accepted(arg, value):
    arg.call(value)


class TestCheckNumber:
    def test_nan_fails_every_bound(self):
        for bound in ({"ge": -math.inf}, {"gt": -math.inf}, {"le": math.inf}, {"lt": math.inf}):
            with pytest.raises(ConfigError, match="got nan"):
                check_number("x", math.nan, **bound)
        check_number("x", math.nan)  # no bound: any number

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_a_bool_is_never_a_number(self, value):
        for integral in (False, True):
            with pytest.raises(ConfigError, match="x must be"):
                check_number("x", value, integral)

    def test_numpy_scalars_pass(self):
        check_number("x", np.float32(0.5), gt=0, lt=1)
        check_number("x", np.uint8(3), integral=True, ge=1, le=3)


class TestConnectivity:
    """One check serves the config, the footprint and the labeller."""

    CALLS = [
        pytest.param(lambda v: SoftMaskConfig(connectivity=v), id="config"),
        pytest.param(softmask._footprint, id="footprint"),
        pytest.param(lambda v: connected_components(_mask(), v), id="connected_components"),
    ]

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("value", [26.0, True, "26"])
    def test_refuses_other_types(self, call, value):
        with pytest.raises(ConfigError, match="connectivity must be an integer"):
            call(value)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("value", [4, 0, 27])
    def test_refuses_other_counts(self, call, value):
        with pytest.raises(ConfigError, match="connectivity must be 6, 18 or 26"):
            call(value)

    @pytest.mark.parametrize("call", CALLS)
    def test_takes_numpy_integers(self, call):
        call(np.int64(18))


def test_numpy_prior_is_taken():
    stack = random_binary_stack(np.random.default_rng(4), m=3, n=30)
    cfg = FusionConfig(prior=np.float32(0.3), max_iters=2)
    assert run_em(stack, cfg).prior == pytest.approx(0.3)


@pytest.mark.parametrize("prior", ["0.3", True])
def test_prior_is_never_a_string_or_a_bool(prior):
    with pytest.raises(ConfigError, match="prior must be in"):
        FusionConfig(prior=prior)
    with pytest.raises(ConfigError, match="prior must be in"):
        posterior_voxel([1.0], RaterParams([0.9], [0.9]), prior)


class TestIntegersWhereIntegersAreMeant:
    """A fractional seed, sample count or index is refused, not truncated."""

    def test_mc_seed_and_index(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            _mc(seed=1.5)
        with pytest.raises(ConfigError, match=r"voxel_index must lie in \[0, 18446744073709551616\), got -1"):
            _mc(voxel_index=-1)
        with pytest.raises(ConfigError, match="samples must be an integer"):
            _mc(samples=2.5)

    def test_the_top_seed_and_index_are_taken(self):
        top = 2**64 - 1
        FusionConfig(mc_seed=top)
        _phantom(seed=top)
        _rater(seed=top)
        _mc(seed=top, voxel_index=top)

    def test_phantom_and_rater_seeds(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            _phantom(seed=1.5)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            _rater(seed=2.7)


@pytest.mark.parametrize("kind", [GridKind.BINARY, GridKind.SOFT, GridKind.POSTERIOR])
def test_m_step_takes_label_grids(kind):
    stack = stack_from_rows([[1.0, 0.0, 1.0, 0.0]])
    assert m_step(stack, grid([1.0, 0.0, 1.0, 0.0], kind)).m == 1


def test_m_step_refuses_an_intensity_grid():
    stack = stack_from_rows([[1.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ConfigError, match="label grid, got intensity"):
        m_step(stack, grid([40.0, 60.0, 0.5, 0.2], GridKind.INTENSITY))
