"""``config.dump_json`` against the two-pass writer it replaced.

The oracle rounds every float to 12 significant digits in a copy of the
tree (``round_floats``) and encodes the copy with ``json.dumps(...,
sort_keys=True, indent=2)``.  ``dump_json`` must give the same bytes on the
bundled scenarios' artifacts, on hand-picked edge values and on random
nested values, and refuse what JSON cannot hold with a TypeError.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionfields.cli import run_convergence_queries
from motionfields.config import ScenarioConfig, dump_json
from motionfields.scenarios import BUNDLED_NAMES, bundled_scenario
from motionfields.verifier import run_verification


def round_floats(obj, sig=12):
    """Recursively round floats to a fixed number of significant digits."""
    if isinstance(obj, float):
        if obj == 0.0 or not np.isfinite(obj):
            return 0.0 if obj == 0.0 else obj
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    if isinstance(obj, (np.floating,)):
        return round_floats(float(obj), sig)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def oracle(obj):
    return json.dumps(round_floats(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_bundled_artifacts_match_the_oracle(name):
    cfg = ScenarioConfig.from_dict(bundled_scenario(name))
    pair = cfg.build_pair()
    report, _ = run_verification(cfg.build_test_function(pair), pair, cfg.plan, cfg.thresholds)
    for obj in (report.to_dict(), run_convergence_queries(pair, cfg.queries)):
        assert dump_json(obj) == oracle(obj)


STRINGS = ['say "hi"', "back\\slash", "\x00\x01\x1f\t\n\r\x7f", "μλ", "", "/"]
EDGE_VALUES = [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-7, 0.1, 1 / 3, 12345.0,
    -2.5e300, np.float32(0.1), np.float64(-0.0), np.float64(math.nan), np.float16(1.5),
    np.int64(-7), np.uint8(255), np.bool_(True), np.bool_(False), True, False, None,
    0, -(2**70), *STRINGS,
    [], {}, (), [[]], [{}], [()], {"a": {}, "b": [], "c": ()}, ((),), [[], [[], {}]],
    {s: s for s in STRINGS}, (1, [2.0, (3, {"x": None})]),
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_values_match_the_oracle(value):
    assert dump_json(value) == oracle(value)
    assert dump_json({"k": [value]}) == oracle({"k": [value]})


LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(width=32).map(np.float32) | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_random_values_match_the_oracle(value):
    assert dump_json(value) == oracle(value)


@pytest.mark.parametrize(
    "value", [1j, np.complex128(1 + 2j), [0, {"a": 1j}], {1: 2}, {"a": {None: 1}}, {(1,): 0},
              np.zeros(2), object()],
    ids=lambda v: type(v).__name__,
)
def test_values_json_cannot_hold_are_refused(value):
    with pytest.raises(TypeError):
        dump_json(value)
