"""Result payloads pinned against values recorded in tests/payload_pins.json.

One to_dict() per result class, built from small seeded inputs on the
fixture forms.  Ints, bools, strings and None compare exactly, key order
and list (never tuple) types are checked at every depth, and floats agree
to 1e-12 relative so the pins do not depend on one machine's BLAS.
"""

import json
import math
from pathlib import Path

import pytest

from cubic7.audits import second_moment_audit
from cubic7.checks import verify
from cubic7.counting import delta_constants
from cubic7.density import density_ladder, slab_volume
from cubic7.experiment import predict
from cubic7.local import block_local_case, gamma_report, local_data

_PINS = json.loads(Path(__file__).with_name("payload_pins.json").read_text())


def payload_objects(f_star, f_content2, f_iii) -> dict:
    """Result objects keyed by pin name (class name, then the input)."""
    l, q = f_star.blocks()[0]
    return {
        "DensityResult": density_ladder(f_star, 0.5, 0.1, 20_000, seed=3),
        "SlabEstimate": slab_volume(f_star, 0.0, 0.05, 20_000, seed=5),
        "BlockLocalData": block_local_case((1, 0, 0), (1, 3, 3, 0, 0, 0), 3),
        "PrimeLocalData": gamma_report(f_content2, 2),
        "LocalData/f_iii": local_data(f_iii),
        "LocalData/f_content2": local_data(f_content2),
        "MainTermReport": delta_constants(f_star, [4, 6, 8]),
        "GrowthAudit": second_moment_audit(l, q, [4, 8, 16]),
        "PredictionReport/zeros": predict(f_star, "zeros", [4, 6, 8], qmax=20,
                                          samples=20_000, seed=1),
        "PredictionReport/representations": predict(
            f_star, "representations", [9, 30], qmax=20, samples=20_000,
            seed=1),
        "CheckResult": verify(f_star)[0],
    }


def _assert_same(got, pin, path="$"):
    if isinstance(pin, dict):
        assert type(got) is dict, path
        assert list(got) == list(pin), path
        for k in pin:
            _assert_same(got[k], pin[k], f"{path}.{k}")
    elif isinstance(pin, list):
        assert type(got) is list and len(got) == len(pin), path
        for i, (g, p) in enumerate(zip(got, pin)):
            _assert_same(g, p, f"{path}[{i}]")
    elif isinstance(pin, float):
        assert isinstance(got, float), path
        assert math.isclose(got, pin, rel_tol=1e-12), (path, got, pin)
    else:
        assert type(got) is type(pin) and got == pin, (path, got, pin)


def test_payloads_pinned(f_star, f_content2, f_iii):
    objects = payload_objects(f_star, f_content2, f_iii)
    assert list(objects) == list(_PINS)
    for name, obj in objects.items():
        _assert_same(obj.to_dict(), _PINS[name], name)


@pytest.mark.parametrize("got, pin", [
    ({"a": (1, 2)}, {"a": [1, 2]}),
    ({"b": 1, "a": 2}, {"a": 2, "b": 1}),
    ({"a": [True]}, {"a": [1]}),
    ({"a": 1.0 + 1e-9}, {"a": 1.0}),
])
def test_comparison_is_strict(got, pin):
    with pytest.raises(AssertionError):
        _assert_same(got, pin)
