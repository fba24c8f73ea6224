"""Penalty kernels, distillation loss, and their analytic gradients.

Closed-form oracles are asserted to 1e-12; gradients are checked against
central finite differences away from the kink at zero error.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecast.dataset import RarityLevel
from rarecast.losses import (
    EXP_ARG_LIMIT,
    PenaltyContext,
    combined_grad,
    combined_loss,
    kd_loss,
    loss_landscape_rows,
    loss_terms,
    rare_loss,
    rare_penalty,
)

RARE = (RarityLevel.MODERATE, RarityLevel.VERY_RARE, RarityLevel.EXTREME_RARE)


def match_ctx(level: RarityLevel, horizon: int = 24) -> PenaltyContext:
    return PenaltyContext(expert_level=level, point_level=level, horizon=horizon)


# ------------------------------------------------------------ closed forms


def test_penalty_closed_forms():
    assert rare_penalty(0.5, match_ctx(RarityLevel.NORMAL)).value == pytest.approx(0.25, abs=1e-12)
    assert rare_penalty(-1.0, match_ctx(RarityLevel.MODERATE)).value == pytest.approx(
        math.e - 1.0, abs=1e-12
    )
    assert rare_penalty(1.0, match_ctx(RarityLevel.VERY_RARE)).value == pytest.approx(
        math.log(math.cosh(1.0)), abs=1e-12
    )
    assert rare_penalty(1.0, match_ctx(RarityLevel.EXTREME_RARE, horizon=24)).value == pytest.approx(
        math.exp(1.0 / 25.0) - 1.0, abs=1e-12
    )


def test_penalty_continuity_at_zero():
    eps = 1e-9
    for level in RarityLevel:
        ctx = match_ctx(level)
        assert abs(rare_penalty(+eps, ctx).value) <= 1e-8
        assert abs(rare_penalty(-eps, ctx).value) <= 1e-8
        zero = rare_penalty(0.0, ctx)
        assert zero.value == 0.0 and zero.d_dpred == 0.0


def test_penalty_over_branch_shapes():
    # moderate keeps the quadratic over-branch, the rarer levels soften it
    d = 2.0
    assert rare_penalty(d, match_ctx(RarityLevel.MODERATE)).value == pytest.approx(d * d)
    assert rare_penalty(d, match_ctx(RarityLevel.VERY_RARE)).value < d * d
    assert rare_penalty(d, match_ctx(RarityLevel.EXTREME_RARE)).value < rare_penalty(
        d, match_ctx(RarityLevel.VERY_RARE)
    ).value


def test_penalty_only_on_matching_points():
    # a rare expert scores non-matching points with the plain quadratic
    ctx = PenaltyContext(
        expert_level=RarityLevel.EXTREME_RARE, point_level=RarityLevel.NORMAL, horizon=16
    )
    assert rare_penalty(-2.0, ctx).value == pytest.approx(4.0, abs=1e-12)
    assert rare_penalty(-2.0, ctx).d_dpred == pytest.approx(-4.0, abs=1e-12)


def test_penalty_horizon_validation():
    with pytest.raises(ValueError):
        PenaltyContext(RarityLevel.NORMAL, RarityLevel.NORMAL, horizon=0)


def test_log_cosh_large_argument_stable():
    v = rare_penalty(50.0, match_ctx(RarityLevel.VERY_RARE)).value
    assert math.isfinite(v)
    assert v == pytest.approx(50.0 - math.log(2.0), abs=1e-12)


# ------------------------------------------------- exponential continuation


def _linear_past_limit(excess: float) -> float:
    return math.expm1(EXP_ARG_LIMIT) + math.exp(EXP_ARG_LIMIT) * excess


@pytest.mark.parametrize("level", RARE)
def test_under_branch_continues_linearly_past_limit(level):
    # regression: expm1(-delta) overflowed to inf for delta < -709 and turned
    # every gradient of an unnormalized large-scale series into nan
    ctx = match_ctx(level, horizon=12)
    edge = rare_penalty(-EXP_ARG_LIMIT, ctx)
    assert edge.value == np.expm1(EXP_ARG_LIMIT)
    assert edge.d_dpred == -np.exp(EXP_ARG_LIMIT)
    for excess in (1e-6, 1.0, 1e3, 1e6):
        out = rare_penalty(-EXP_ARG_LIMIT - excess, ctx)
        assert out.value == pytest.approx(_linear_past_limit(excess), rel=1e-12)
        assert out.d_dpred == -np.exp(EXP_ARG_LIMIT)


def test_extreme_over_branch_continues_linearly_past_limit():
    horizon = 12
    ctx = match_ctx(RarityLevel.EXTREME_RARE, horizon=horizon)
    scale = 1.0 / (horizon + 1.0)
    edge = EXP_ARG_LIMIT * (horizon + 1.0)
    assert rare_penalty(edge, ctx).value == pytest.approx(math.expm1(EXP_ARG_LIMIT), rel=1e-15)
    for excess in (1e-3, 1.0, 1e3, 1e6):
        out = rare_penalty(edge + excess, ctx)
        assert out.value == pytest.approx(_linear_past_limit(excess * scale), rel=1e-12)
        assert out.d_dpred == pytest.approx(math.exp(EXP_ARG_LIMIT) * scale, rel=1e-15)


@pytest.mark.parametrize(
    "level, edge",
    [(level, -EXP_ARG_LIMIT) for level in RARE] + [(RarityLevel.EXTREME_RARE, EXP_ARG_LIMIT * 13.0)],
)
def test_exponential_continuation_is_c1_at_limit(level, edge):
    ctx = match_ctx(level, horizon=12)
    h = 1e-7
    below, above = rare_penalty(edge - h, ctx), rare_penalty(edge + h, ctx)
    at = rare_penalty(edge, ctx)
    assert abs(above.value - below.value) <= 2.5 * h * abs(at.d_dpred)
    assert below.d_dpred == pytest.approx(above.d_dpred, rel=1e-6)
    assert at.d_dpred == pytest.approx(_fd(lambda d: rare_penalty(d, ctx).value, edge, h), rel=1e-6)


def test_exponential_branches_unchanged_inside_limit():
    # bitwise the plain exponential up to the limit: seeded runs never reach it
    for level in RARE:
        for d in np.linspace(-EXP_ARG_LIMIT, -1e-3, 25):
            out = rare_penalty(float(d), match_ctx(level))
            assert out.value == np.expm1(-d)
            assert out.d_dpred == -np.exp(-d)


# -------------------------------------------------------- asymmetry shape


@settings(max_examples=200)
@given(
    delta=st.floats(1e-3, 10.0, exclude_min=True, allow_nan=False),
    level=st.sampled_from(RARE),
)
def test_under_prediction_costs_more(delta, level):
    ctx = match_ctx(level, horizon=16)
    over = rare_penalty(+delta, ctx).value
    under = rare_penalty(-delta, ctx).value
    assert over < under
    assert math.expm1(delta) > delta * delta  # exponential dominates quadratic


# ---------------------------------------------------------------- rare_loss


def test_rare_loss_is_mean_of_pointwise():
    pred = np.array([1.0, 2.0, 0.5])
    truth = np.array([0.0, 3.0, 0.5])
    levels = np.array([int(RarityLevel.VERY_RARE), int(RarityLevel.NORMAL), int(RarityLevel.VERY_RARE)])
    out = rare_loss(pred, truth, levels, RarityLevel.VERY_RARE, horizon=3)
    per_point = [
        rare_penalty(1.0, match_ctx(RarityLevel.VERY_RARE, 3)).value,
        1.0,  # non-matching point, quadratic on delta -1
        0.0,
    ]
    assert out.value == pytest.approx(np.mean(per_point), abs=1e-12)
    assert np.asarray(out.d_dpred).shape == pred.shape


def test_rare_loss_shape_mismatch():
    with pytest.raises(ValueError):
        rare_loss(np.zeros(3), np.zeros(4), np.zeros(3), RarityLevel.NORMAL)


def test_rare_loss_rejects_an_unknown_expert_level():
    with pytest.raises(ValueError, match="unknown expert level 5"):
        rare_loss(np.zeros(3), np.ones(3), np.zeros(3, dtype=int), 5)


def _fd(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.mark.parametrize("level", list(RarityLevel))
@pytest.mark.parametrize("delta", [-3.0, -0.4, 0.4, 3.0])
def test_penalty_gradient_finite_difference(level, delta):
    ctx = match_ctx(level, horizon=12)
    ana = rare_penalty(delta, ctx).d_dpred
    fd = _fd(lambda d: rare_penalty(d, ctx).value, delta)
    assert ana == pytest.approx(fd, abs=1e-5)


def test_rare_loss_gradient_finite_difference():
    rng = np.random.default_rng(11)
    pred = rng.normal(size=8)
    truth = rng.normal(size=8)
    pred = np.where(np.abs(pred - truth) < 1e-3, truth + 0.01, pred)  # stay off the kink
    levels = rng.integers(0, 4, size=8)
    out = rare_loss(pred, truth, levels, RarityLevel.EXTREME_RARE, horizon=8)
    g = np.asarray(out.d_dpred)
    for i in range(8):
        def f(v, i=i):
            p = pred.copy()
            p[i] = v
            return rare_loss(p, truth, levels, RarityLevel.EXTREME_RARE, horizon=8).value

        assert g[i] == pytest.approx(_fd(f, pred[i]), abs=1e-6)


# ----------------------------------------------------------------- kd_loss


def test_kd_loss_oracles():
    assert kd_loss(np.array([1.0]), np.array([0.0])).value == pytest.approx(0.25, abs=1e-12)
    assert kd_loss(np.array([0.0]), np.array([3.0])).value == pytest.approx(0.5625, abs=1e-12)
    assert kd_loss(np.zeros(4), np.zeros(4)).value == 0.0


def test_kd_loss_bounded_and_even():
    rng = np.random.default_rng(3)
    s, t = rng.normal(size=50) * 100, rng.normal(size=50) * 100
    assert kd_loss(s, t).value < 1.0
    assert kd_loss(s, t).value == pytest.approx(kd_loss(t, s).value, abs=1e-15)


def test_kd_loss_gradient_finite_difference():
    rng = np.random.default_rng(5)
    s, t = rng.normal(size=6), rng.normal(size=6)
    g = np.asarray(kd_loss(s, t).d_dpred)
    for i in range(6):
        def f(v, i=i):
            p = s.copy()
            p[i] = v
            return kd_loss(p, t).value

        assert g[i] == pytest.approx(_fd(f, s[i]), abs=1e-7)


def test_kd_loss_shape_mismatch():
    with pytest.raises(ValueError):
        kd_loss(np.zeros(3), np.zeros(2))


@settings(max_examples=100)
@given(st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False))
def test_kd_loss_contribution_in_unit_interval(s, t):
    v = kd_loss(np.array([s]), np.array([t])).value
    assert 0.0 <= v < 1.0


# ------------------------------------------------------------ combined_loss


def test_combined_loss_composition():
    rng = np.random.default_rng(9)
    pred, truth, teacher = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
    levels = np.full(5, int(RarityLevel.MODERATE))
    rare = rare_loss(pred, truth, levels, RarityLevel.MODERATE, 5)
    kd = kd_loss(pred, teacher)
    both = combined_loss(pred, truth, teacher, levels, RarityLevel.MODERATE, beta=0.7, horizon=5)
    assert both.value == pytest.approx(rare.value + 0.7 * kd.value, abs=1e-12)
    np.testing.assert_allclose(
        np.asarray(both.d_dpred),
        np.asarray(rare.d_dpred) + 0.7 * np.asarray(kd.d_dpred),
        atol=1e-15,
    )


def test_combined_loss_normal_expert_skips_distillation():
    pred, truth = np.ones(3), np.zeros(3)
    levels = np.zeros(3, dtype=int)
    out = combined_loss(pred, truth, None, levels, RarityLevel.NORMAL, beta=2.0, horizon=3)
    assert out.value == pytest.approx(1.0)


def test_combined_loss_requires_teacher():
    pred, truth = np.ones(3), np.zeros(3)
    levels = np.ones(3, dtype=int)
    with pytest.raises(ValueError, match="teacher"):
        combined_loss(pred, truth, None, levels, RarityLevel.MODERATE, beta=0.5, horizon=3)
    with pytest.raises(ValueError, match="beta"):
        combined_loss(pred, truth, None, levels, RarityLevel.MODERATE, beta=-0.5, horizon=3)
    # a non-finite weight fails as itself, not as a missing teacher or a NaN loss
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be finite"):
            combined_loss(pred, truth, np.zeros(3), levels, RarityLevel.MODERATE, beta=beta, horizon=3)
    # beta 0 is the plain rarity loss, no teacher needed
    out = combined_loss(pred, truth, None, levels, RarityLevel.MODERATE, beta=0.0, horizon=3)
    assert out.value == pytest.approx(1.0)
    # the normal level's quadratic needs no point levels, every rarer level does
    assert rare_loss(pred, truth, None, RarityLevel.NORMAL, horizon=3).value == 1.0
    for level in RARE:
        with pytest.raises(ValueError, match=f"{level.name} needs point levels"):
            combined_grad(pred, truth, None, None, level, 0.0, 3)
    # a teacher of the wrong shape is named with both shapes, by the function called
    for call in (combined_grad, combined_loss, loss_terms):
        with pytest.raises(ValueError, match=re.escape(
            f"{call.__name__}: teacher predictions shaped (2,) do not match pred shaped (3,)"
        )):
            call(pred, truth, np.zeros(2), levels, RarityLevel.MODERATE, 0.5, 3)


# Each public entry to the objective with (pred, truth, point_levels, level, beta).
OBJECTIVE_CALLS = {
    "combined_grad": lambda p, t, lv, level, beta: combined_grad(p, t, None, lv, level, beta, 3),
    "loss_terms": lambda p, t, lv, level, beta: loss_terms(p, t, None, lv, level, beta, 3),
    "combined_loss": lambda p, t, lv, level, beta: combined_loss(p, t, None, lv, level, beta, 3),
    "rare_loss": lambda p, t, lv, level, beta: rare_loss(p, t, lv, level, 3),
}


@pytest.mark.parametrize("name", OBJECTIVE_CALLS)
def test_objective_errors_name_the_function_called(name):
    call = OBJECTIVE_CALLS[name]
    with pytest.raises(ValueError, match=f"^{name}: expert level MODERATE needs point levels$"):
        call(np.zeros(3), np.zeros(3), None, RarityLevel.MODERATE, 0.0)
    with pytest.raises(ValueError, match="^" + re.escape(
        f"{name}: pred (3,), truth (4,), point_levels (3,) must share a shape"
    )):
        call(np.zeros(3), np.zeros(4), np.zeros(3, dtype=int), RarityLevel.MODERATE, 0.0)
    with pytest.raises(ValueError, match="^" + re.escape(f"{name}: pred (2, 3), truth (3,) must share")):
        call(np.zeros((2, 3)), np.zeros(3), None, RarityLevel.NORMAL, 0.0)
    if name != "rare_loss":  # rare_loss takes no beta
        with pytest.raises(ValueError, match=f"^{name}: beta must be finite and >= 0, got nan$"):
            call(np.zeros(3), np.zeros(3), np.zeros(3, dtype=int), RarityLevel.MODERATE, float("nan"))


# ---------------------------------------------------------------- landscape


def test_loss_landscape_rows_grid():
    rows = loss_landscape_rows(horizon=16, lo=-2.0, hi=2.0, steps=5)
    assert len(rows) == 4 * 5
    at_zero = [r for r in rows if r[0] == 0.0]
    assert len(at_zero) == 4 and all(v == 0.0 for _, _, v in at_zero)
    names = {name for _, name, _ in rows}
    assert names == {"normal", "moderate", "very", "extreme"}


@pytest.mark.parametrize(
    "lo, hi, steps",
    [(-1.0, 1.0, 0), (-1.0, 1.0, -3), (float("nan"), 1.0, 5), (-1.0, float("inf"), 5)],
)
def test_loss_landscape_rows_rejects_a_bad_grid(lo, hi, steps):
    # These used to write NaN rows, no rows, or fail with a bare numpy message.
    with pytest.raises(ValueError, match="^loss_landscape_rows: "):
        loss_landscape_rows(horizon=16, lo=lo, hi=hi, steps=steps)


# ------------------------------------------------------ one gradient path


@st.composite
def _gradient_cases(draw):
    """A horizon and (pred, truth, teacher) rows whose errors cover every branch.

    The errors hold at least one each of: delta < 0, delta = 0, delta > 0,
    delta past -EXP_ARG_LIMIT, and delta past EXP_ARG_LIMIT * (H + 1).
    """
    h = draw(st.integers(1, 24))
    limit = EXP_ARG_LIMIT * (h + 1)
    regimes = [
        st.floats(-EXP_ARG_LIMIT, -1e-9),
        st.just(0.0),
        st.floats(1e-9, EXP_ARG_LIMIT),
        st.floats(-1e6, -EXP_ARG_LIMIT, exclude_max=True),
        st.floats(limit, 1e6, exclude_min=True),
    ]
    delta = [draw(r) for r in regimes]
    delta += draw(st.lists(st.one_of(regimes), max_size=8))
    n = len(delta)
    truth = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    teacher = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    # truth 0 keeps each error exact; a second copy of the rows shifts them by truth
    zero = np.zeros(n)
    return h, np.concatenate([delta, truth + delta]), np.concatenate([zero, truth]), np.concatenate(
        [teacher, teacher]
    )


@settings(max_examples=60, deadline=None)
@given(case=_gradient_cases(), beta=st.floats(1e-3, 10.0))
def test_training_gradient_is_combined_loss_gradient_bitwise(case, beta):
    # train_expert's loss gradient is combined_grad, given no point levels at
    # the normal level; it must be combined_loss's d_dpred, and the rarity
    # gradient plus beta times the distillation gradient, bit for bit, in
    # every cell: expert level x point level x teacher absent/given x beta
    # zero/positive, the normal level with a teacher (use_rare_penalty off)
    # included. Its loss curve reads loss_terms, whose values must compose
    # combined_loss's value and match rare_loss and kd_loss bit for bit.
    h, pred, truth, teacher_row = case
    for expert, point, teacher, b in itertools.product(
        RarityLevel, RarityLevel, (None, teacher_row), (0.0, beta)
    ):
        levels = np.full(pred.shape, int(point))
        train_levels = None if expert == RarityLevel.NORMAL else levels
        if teacher is None and b > 0.0 and expert != RarityLevel.NORMAL:
            for call in (combined_grad, combined_loss, loss_terms):
                with pytest.raises(ValueError, match="requires teacher"):
                    call(pred, truth, teacher, train_levels, expert, b, h)
            continue
        rare, kd = loss_terms(pred, truth, teacher, train_levels, expert, b, h)
        assert rare + b * kd == combined_loss(pred, truth, teacher, levels, expert, b, h).value
        assert rare == rare_loss(pred, truth, levels, expert, h).value
        assert kd == (kd_loss(pred, teacher).value if teacher is not None and b > 0.0 else 0.0)
        got = combined_grad(pred, truth, teacher, train_levels, expert, b, h)
        assert got.tobytes() == combined_loss(pred, truth, teacher, levels, expert, b, h).d_dpred.tobytes()
        want = np.asarray(rare_loss(pred, truth, levels, expert, h).d_dpred)
        if teacher is not None and b > 0.0:
            want = want + b * np.asarray(kd_loss(pred, teacher).d_dpred)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()
