"""The package namespace re-exports every layer's public names, each
declared in exactly one layer's __all__, and only names that exist."""

import importlib
import math
import re

import numpy as np
import pytest

import recrange

LAYERS = (
    "errors", "specfun", "records", "model", "estimators", "intervals", "risk", "sim"
)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_reach_the_package(layer):
    module = importlib.import_module(f"recrange.{layer}")
    assert set(module.__all__) <= set(recrange.__all__)
    for name in module.__all__:
        assert getattr(recrange, name) is getattr(module, name)


def test_every_package_export_resolves():
    missing = [name for name in recrange.__all__ if not hasattr(recrange, name)]
    assert missing == []


def test_package_exports_are_the_layers_exports():
    layer_names = [
        name
        for layer in LAYERS
        for name in importlib.import_module(f"recrange.{layer}").__all__
    ]
    assert len(recrange.__all__) == len(set(recrange.__all__))
    assert len(layer_names) == len(set(layer_names))  # each name has one home
    assert set(recrange.__all__) == {"__version__", "datasets", *layer_names}


PRIOR = recrange.PriorParams(a=3.0, b=5.0)
RULE = recrange.LinearEstimator(m=0.2, d=0.5)
SAMPLE_A = recrange.extract_upper_records(recrange.datasets.SAMPLE_A)


def _config(**fields):
    base = dict(delta_true=1.0, n_records=3, reps=2, seed=0, workers=1)
    return recrange.SimConfig(prior=PRIOR, **{**base, **fields})


def _stream_capped(cap):
    try:
        return recrange.sample_records_stream(1.0, 2, 0, cap=cap)
    except recrange.CapExhaustedError as exc:  # a valid cap, too few draws
        return exc.partial


# every public entry point that takes a record count, a repetition count, a
# seed, a stream index or a worker count, as (call with that argument, least,
# and the error below least where it is not DomainError)
COUNTS = {
    "truncate n": (lambda v: recrange.truncate(SAMPLE_A, v), 1),
    "sample_records_direct n": (lambda v: recrange.sample_records_direct(2.0, v, 0), 2),
    "sample_records_stream n": (lambda v: recrange.sample_records_stream(2.0, v, 0), 2),
    "sample_records_stream cap": (_stream_capped, 1),
    "mle_records n": (lambda v: recrange.mle_records(2.0, v), 1),
    # one record is a count, but no range
    "mle_urr n": (
        lambda v: recrange.mle_urr(2.0, v), 2, recrange.InsufficientRecordsError
    ),
    "analytic_moments n": (
        lambda v: recrange.analytic_moments("bayes_squared", 2.0, v, PRIOR), 2
    ),
    "range_pdf n": (lambda v: recrange.range_pdf(1.0, v, 2.0), 2),
    "risk_linear n": (lambda v: recrange.risk_linear(RULE, 2.0, v), 2),
    "bayes_risk_linear n": (lambda v: recrange.bayes_risk_linear(RULE, v, PRIOR), 2),
    "r1_r2_gap n": (lambda v: recrange.r1_r2_gap(0.5, v, 5.0), 2),
    "classify_admissible n": (lambda v: recrange.classify_admissible(RULE, v), 2),
    "sample_records_direct seed": (lambda v: recrange.sample_records_direct(2.0, 3, v), 0),
    "sample_records_stream seed": (lambda v: recrange.sample_records_stream(2.0, 3, v), 0),
    "derive_rep_seed seed": (lambda v: recrange.derive_rep_seed(v, 0, 3), 0),
    "derive_rep_seed rep": (lambda v: recrange.derive_rep_seed(0, v, 3), 0),
    "derive_rep_seed stream": (lambda v: recrange.derive_rep_seed(0, 0, v), 0),
    "SimConfig n_records": (lambda v: _config(n_records=v), 2),
    "SimConfig n_records entry": (lambda v: _config(n_records=(4, v)), 2),
    "SimConfig reps": (lambda v: _config(reps=v), 1),
    "SimConfig seed": (lambda v: _config(seed=v), 0),
    "SimConfig workers": (lambda v: _config(workers=v), 1),
}


# the samplers count a seed only when it is a number: any other seed,
# None included, goes to numpy.random.default_rng as it is
NUMBER_SEEDS = {"sample_records_direct seed", "sample_records_stream seed"}


class _Index:
    """Not an int, but an integer to operator.index."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("entry", list(COUNTS))
def test_counts_are_integers_of_at_least_their_bound(entry):
    call, least, *below = COUNTS[entry]
    good = [least, least + 1]
    bad = [float(least), least + 0.5, True, False]
    if entry not in NUMBER_SEEDS:
        good.append(_Index(least + 1))
        bad += ["3", None]
    for value in good:
        call(value)
    with pytest.raises(*below or [recrange.DomainError]):
        call(least - 1)
    for value in bad:
        with pytest.raises(recrange.DomainError):
            call(value)


POST = recrange.PosteriorParams(s=4.0, A=9.0)
ET = recrange.IntervalKind.EQUAL_TAILS

# every public real-valued argument, as (call with that argument, a good
# value, a value below its bound or None where it has none, whether +inf
# passes, and the name its DomainError starts with)
REALS = {
    "PriorParams a": (lambda v: recrange.PriorParams(a=v, b=5.0), 3, 0, False, "prior shape a"),
    "PriorParams b": (lambda v: recrange.PriorParams(a=3.0, b=v), 5, -1, False, "prior scale b"),
    "PosteriorParams s": (
        lambda v: recrange.PosteriorParams(s=v, A=9.0), 4, 0, False, "posterior shape s"
    ),
    "PosteriorParams A": (
        lambda v: recrange.PosteriorParams(s=4.0, A=v), 9, 0, False, "posterior scale A"
    ),
    "SimConfig delta_true": (
        lambda v: _config(delta_true=v), 1, 0, False, "true scale delta_true"
    ),
    "SimConfig alpha_list": (lambda v: _config(alpha_list=(v,)), 0.1, 0, False, "alpha"),
    "equal_tails alpha": (lambda v: recrange.equal_tails(POST, v), 0.1, 0, False, "alpha"),
    # r = inf gave nan
    "range_pdf r": (lambda v: recrange.range_pdf(v, 3, 1.0), 1, -1, False, "range r"),
    "range_pdf delta": (lambda v: recrange.range_pdf(1.0, 3, v), 2, 0, False, "scale delta"),
    "posterior_log_pdf delta": (
        lambda v: recrange.posterior_log_pdf(v, POST), 2, 0, False, "delta"
    ),
    "posterior_pdf delta": (lambda v: recrange.posterior_pdf(v, POST), 2, 0, False, "delta"),
    "posterior_coverage c_lo": (
        lambda v: recrange.posterior_coverage(v, 5.0, POST), 1, -1, False, "c_lo"
    ),
    "posterior_coverage c_hi": (
        lambda v: recrange.posterior_coverage(1.0, v, POST), 2, 0.5, True, "c_hi"
    ),
    "mle_records x_last_record": (
        lambda v: recrange.mle_records(v, 2), 2, 0, False, "last record value"
    ),
    "mle_urr record_range": (
        lambda v: recrange.mle_urr(v, 2), 2, 0, False, "record range r"
    ),
    "analytic_moments delta_ref": (
        lambda v: recrange.analytic_moments("mle_urr", v, 3),
        2, 0, False, "reference scale delta_ref",
    ),
    "sample_records_direct delta": (
        lambda v: recrange.sample_records_direct(v, 3, 0), 2, 0, False, "scale delta"
    ),
    "sample_records_stream delta": (
        lambda v: recrange.sample_records_stream(v, 3, 0), 2, 0, False, "scale delta"
    ),
    "hpd_hpm_closed_form g": (
        lambda v: recrange.hpd_hpm_closed_form(POST, v), 1, -1, False, "length g"
    ),
    "CredibleInterval lower": (
        lambda v: recrange.CredibleInterval(v, 3.0, 0.5, ET), 1, 0, False, "lower endpoint"
    ),
    "CredibleInterval upper": (
        lambda v: recrange.CredibleInterval(1.0, v, 0.5, ET), 2, 0.5, False, "upper endpoint"
    ),
    "CredibleInterval level": (
        lambda v: recrange.CredibleInterval(1.0, 2.0, v, ET), 0, -0.5, False, "level"
    ),
    "LinearEstimator m": (
        lambda v: recrange.LinearEstimator(m=v, d=0.5), 1, None, False, "slope m"
    ),
    "LinearEstimator d": (
        lambda v: recrange.LinearEstimator(m=0.2, d=v), 1, None, False, "offset d"
    ),
    "risk_linear delta": (
        lambda v: recrange.risk_linear(RULE, v, 3), 2, 0, False, "true scale delta"
    ),
    "r1_r2_gap k": (lambda v: recrange.r1_r2_gap(v, 3, 5.0), 1, 0, False, "path parameter k"),
    "r1_r2_gap b": (lambda v: recrange.r1_r2_gap(0.5, 3, v), 5, 0, False, "prior scale b"),
    "ln_gamma x": (lambda v: recrange.ln_gamma(v), 2, 0, False, "x"),
    "reg_lower_gamma s": (lambda v: recrange.reg_lower_gamma(v, 1.0), 2, 0, False, "shape s"),
    "reg_lower_gamma x": (lambda v: recrange.reg_lower_gamma(2.0, v), 1, -1, True, "x"),
    "gen_incomplete_gamma s": (
        lambda v: recrange.gen_incomplete_gamma(v, 1.0, 3.0), 2, 0, False, "shape s"
    ),
    "gen_incomplete_gamma x_lo": (
        lambda v: recrange.gen_incomplete_gamma(2.0, v, 3.0), 1, -1, False, "x_lo"
    ),
    "gen_incomplete_gamma x_hi": (
        lambda v: recrange.gen_incomplete_gamma(2.0, 1.0, v), 2, 0.5, True, "x_hi"
    ),
    "chi2_quantile p": (lambda v: recrange.chi2_quantile(v, 3.0), 0.5, 0, False, "probability p"),
    "chi2_quantile nu": (
        lambda v: recrange.chi2_quantile(0.5, v), 3, 0, False, "degrees of freedom nu"
    ),
}


@pytest.mark.parametrize("entry", list(REALS))
def test_reals_are_real_numbers_within_their_bounds(entry):
    call, good, low, inf_passes, name = REALS[entry]
    # an int where the good value is one, a float and a numpy float, all alike
    values = [float(good), np.float64(good)] + [int(good)] * (int(good) == good)
    results = [call(v) for v in values]
    assert all(r == results[0] for r in results)
    bad = ["3", str(good), None, 1j, True, False, math.nan, -math.inf]
    bad += [low] * (low is not None) + [math.inf] * (not inf_passes)
    for value in bad:
        with pytest.raises(recrange.DomainError, match=rf"^{re.escape(name)} must"):
            call(value)
