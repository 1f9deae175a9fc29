"""The package namespace re-exports every layer's public names, each
declared in exactly one layer's __all__, and only names that exist."""

import importlib

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


def _config(**counts):
    base = dict(n_records=3, reps=2, seed=0, workers=1)
    return recrange.SimConfig(delta_true=1.0, prior=PRIOR, **{**base, **counts})


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
