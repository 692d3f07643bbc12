"""The one-pass oracle pipeline, and the names the benchmark's tracing rebinds.

``bench/workloads.py`` rebuilds each oracle from its layer functions
(``batch_losses``, a weight routine, ``jacobian_transpose_apply``) and checks
it bit for bit against the program's oracle; its traced runs rebind module
attributes by name.  These tests pin both contracts.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import tailopt.cli
import tailopt.smoothing
from tailopt.core import Dataset, RiskParams, batch_losses, jacobian_transpose_apply
from tailopt.models import LinearLeastSquares, LinearLogistic
from tailopt.smoothing import smoothed_oracle, smoothed_weights_entropic, smoothed_weights_euclidean
from tailopt.superquantile import exact_oracle, exact_subgradient_weights

from helpers import CountingLoss, random_lsq_dataset

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (penalty or None for the exact oracle, p, mu, whether the weights have full support)
CASES = [
    (None, 0.0, None, True),
    (None, 0.9, None, False),
    ("euclidean", 0.9, 1e-2, False),
    ("euclidean", 0.5, 1e6, True),
    ("entropic", 0.9, 1.0, True),
    ("entropic", 0.9, 1e-3, False),  # exp underflows to 0 far below the top
]


def composed(loss, data, w, penalty, p, mu):
    """batch_losses -> weights -> jacobian_transpose_apply, as the benchmark composes them."""
    L = batch_losses(loss, data, w)
    if penalty is None:
        out = exact_subgradient_weights(L, p)
    elif penalty == "entropic":
        out = smoothed_weights_entropic(L, p, mu)
    else:
        out = smoothed_weights_euclidean(L, p, mu)
    return out.value, jacobian_transpose_apply(loss, data, w, out.weights), out.weights


def program_oracle(loss, data, w, penalty, p, mu):
    if penalty is None:
        return exact_oracle(loss, data, w, p)
    return smoothed_oracle(loss, data, w, RiskParams(p=p, mu=mu, penalty=penalty))


class TestOnePass:
    # 41 columns: there a gathered X[S] @ w differs from (X @ w)[S] in the
    # last bits, so a Jacobian that re-multiplied the support would show.
    @pytest.mark.parametrize("penalty,p,mu,full", CASES)
    def test_oracle_is_bit_identical_to_its_layers(self, penalty, p, mu, full):
        data = random_lsq_dataset(21, n=500, d=41)
        rng = np.random.default_rng(22)
        for _ in range(5):
            w = rng.standard_normal(41)
            f, g = program_oracle(LinearLeastSquares(), data, w, penalty, p, mu)
            f_ref, g_ref, q = composed(LinearLeastSquares(), data, w, penalty, p, mu)
            assert bool(q.all()) is full
            assert f == f_ref
            assert np.array_equal(g, g_ref)

    def test_logistic_oracle_is_bit_identical_to_its_layers(self):
        rng = np.random.default_rng(23)
        data = Dataset(rng.standard_normal((300, 41)), rng.choice([-1.0, 1.0], size=300))
        w = rng.standard_normal(41)
        for penalty, p, mu, _ in CASES:
            f, g = program_oracle(LinearLogistic(), data, w, penalty, p, mu)
            f_ref, g_ref, _ = composed(LinearLogistic(), data, w, penalty, p, mu)
            assert f == f_ref and np.array_equal(g, g_ref)

    @pytest.mark.parametrize("penalty,p,mu,full", CASES)
    def test_one_value_and_one_slope_call(self, penalty, p, mu, full):
        data = random_lsq_dataset(25, n=200, d=5)
        loss = CountingLoss()
        program_oracle(loss, data, np.ones(5), penalty, p, mu)
        assert (loss.value_calls, loss.slope_calls) == (1, 1)
        assert (loss.slope_samples == 200) is full


class TestBenchmarkHooks:
    @staticmethod
    def rebound_names():
        source = (BENCH / "workloads.py").read_text()
        return set(re.findall(r"tailopt\.(\w+),\s*\"(\w+)\"", source))

    def test_every_rebound_attribute_resolves(self):
        names = self.rebound_names()
        assert {
            ("smoothing", "batch_losses"),
            ("smoothing", "jacobian_transpose_apply"),
            ("smoothing", "smoothed_weights_entropic"),
            ("cli", "load_csv"),
            ("cli", "run_solver"),
        } <= names
        modules = {"cli": tailopt.cli, "smoothing": tailopt.smoothing}
        for module, attr in sorted(names):
            assert callable(getattr(modules[module], attr)), (module, attr)

    def test_replaced_raises_on_missing_attribute(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        sys.modules.pop("tracing", None)
        from tracing import replaced

        with pytest.raises(AttributeError):
            with replaced([(tailopt.smoothing, "no_such_layer", lambda fn: fn)]):
                pass

    @pytest.mark.parametrize("penalty", ["euclidean", "entropic"])
    def test_weight_step_is_looked_up_in_module_globals(self, monkeypatch, penalty):
        name = f"smoothed_weights_{penalty}"
        original = getattr(tailopt.smoothing, name)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(tailopt.smoothing, name, counting)
        data = random_lsq_dataset(26, n=50, d=3)
        smoothed_oracle(LinearLeastSquares(), data, np.zeros(3), RiskParams(p=0.8, mu=0.5, penalty=penalty))
        assert len(calls) == 1
