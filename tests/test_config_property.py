"""Property test of the scenario parser on randomly mutated documents.

One key of a bundled document is dropped, or one value replaced by a
string, a list, NaN or a negative number.  Parsing and building the
instance and the test function then either succeed or raise ConfigError,
never anything else; a document that parses serializes back to itself.
No scenario is run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from motionfields.config import ScenarioConfig
from motionfields.errors import ConfigError
from motionfields.scenarios import BUNDLED_NAMES, bundled_scenario

REPLACEMENTS = ("x", [], [1.5, "x"], math.nan, -1, -2.5)


def _paths(node, prefix=()):
    """Every key or index path inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _mutate(doc, path, replacement):
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement


@settings(max_examples=150, deadline=None, database=None)
@given(
    name=st.sampled_from(BUNDLED_NAMES),
    replacement=st.sampled_from((None,) + REPLACEMENTS),
    data=st.data(),
)
def test_mutated_documents_parse_or_raise_config_error(name, replacement, data):
    doc = bundled_scenario(name)
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    _mutate(doc, path, replacement)
    try:
        cfg = ScenarioConfig.from_dict(doc)
    except ConfigError:
        return
    cfg.build_test_function(cfg.build_pair())
    assert ScenarioConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
