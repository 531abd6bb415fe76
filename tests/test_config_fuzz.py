"""Every shipped config with one or two leaves made hostile exits 0, 1 or 2 with a message.

Each config's run lengths are shrunk first, so a case that still runs takes
milliseconds.  The mutated document goes through ``cli.main`` in process, as
the command line reads it: no exception may escape, and a nonzero exit must
say why on stderr.
"""

import contextlib
import copy
import functools
import io
import math
import sys
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from countsim import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_SHRUNK = {"T": 30, "burn_in": 5, "n": 10, "replicates": 3}


class _Plain(str):
    """Text written into the document unquoted, as a user would type it (``0755``, ``yes``)."""


class _Dumper(yaml.SafeDumper):
    pass


# The tag the dumper's own (YAML 1.1) resolver gives the text lets it go out plain.
_Dumper.add_representer(_Plain, lambda dumper, text: dumper.represent_scalar(
    dumper.resolve(yaml.ScalarNode, text, (True, False)), text))

class _Tagged(tuple):
    """``(tag, text)``, written as ``!!tag 'text'``: an explicit tag that may refuse its text."""


# A quoted scalar keeps its explicit tag even where the dumper would resolve the text to that tag.
_Dumper.add_representer(_Tagged, lambda dumper, tagged: dumper.represent_scalar(
    f"tag:yaml.org,2002:{tagged[0]}", tagged[1], style="'"))

# First comes a list nested 40 deep, past the 32 dimensions numpy iterates:
# hypothesis draws the first entries most often, and this one breaks numpy only
# where it replaces the entry of a one-entry vector.  The plain spellings are
# numbers and booleans in YAML 1.1 or 1.2, most of them in only one of the two.
# The tagged ones end in a tag's constructor, most of them refusing the text.
HOSTILE = [functools.reduce(lambda inner, _: [inner], range(40), 1.0),
           True, False, "1", "abc", math.nan, math.inf, -math.inf, -1, 2**63, 2**70, 10**400, 1e19,
           sys.float_info.max, [], {}, [[1, 2], [3]], [[[1.0]]], {"a": 1},
           *map(_Plain, ["0755", "1:30", "1_000", "yes", "on", "no", "off", "0o17", "0x1F", ".NaN", "-.Inf"]),
           *map(_Tagged, [("float", "abc"), ("int", "abc"), ("int", "0x"), ("bool", "maybe"), ("float", ""),
                          ("timestamp", "2001-13-45"), ("timestamp", "abc"), ("binary", "abc"), ("null", "x")])]


def _shrunk(path: Path) -> dict:
    document = yaml.safe_load(path.read_text(encoding="utf-8"))
    experiment = document["experiment"]
    for key, value in _SHRUNK.items():
        if key in experiment:
            experiment[key] = value
    return document


CONFIGS = {path.stem: _shrunk(path) for path in sorted(CONFIG_DIR.glob("*.yaml"))}


def _leaves(value, path=()) -> list:
    """The paths (key and index tuples) to every scalar inside ``value``."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in _leaves(item, path + (key,))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, path + (i,))]
    return [path]


def _replace(document, path: tuple, value) -> None:
    for key in path[:-1]:
        document = document[key]
    document[path[-1]] = copy.deepcopy(value)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_a_mutated_shipped_config_exits_0_1_or_2_with_a_message(data):
    name = data.draw(st.sampled_from(sorted(CONFIGS)), label="config")
    document = copy.deepcopy(CONFIGS[name])
    command = document["experiment"]["kind"]
    for path in data.draw(st.lists(st.sampled_from(_leaves(document)), min_size=1, max_size=2, unique=True),
                          label="leaves"):
        _replace(document, path, data.draw(st.sampled_from(HOSTILE), label=".".join(map(str, path))))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.dump(document, Dumper=_Dumper), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(config), "--jobs", "1", "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code:
        assert stderr.getvalue().strip(), f"exit {code} without a message"
