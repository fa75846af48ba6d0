"""Contract fuzzing of the command line: mutated bundle JSON and random .idl
text, run through cli_main with check, identities, construct, tensor, dsl
check and the catalog commands, must end in exit 0, 1 or 2 and never
raise."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomcheck.cli import cli_main
from bihomcheck.dsl import print_identity
from bihomcheck.structures import IDENTITIES, REGISTRY, SUITES

# a dense Q-bundle carrying every conventional op and map name
Q_BUNDLE = {
    "schema": 1,
    "dim": 2,
    "basis": ["e1", "e2"],
    "ops": {
        "mul": {"arity": 2, "entries": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]},
        "br": {"arity": 2, "entries": [[0, 1, 1, "1/2"], [1, 0, 1, "-1/2"]]},
        "star": {"arity": 2, "entries": [[0, 0, 1, "2"], [1, 1, 0, "-1"]]},
        "tbr": {"arity": 3, "entries": [[0, 1, 0, 1, "1"], [1, 0, 0, 1, "-1"]]},
    },
    "maps": {
        "a": [["1", "0"], ["1", "1"]],
        "b": [["2", "0"], ["0", "1"]],
        "D": [["0", "0"], ["1", "0"]],
        "f": [["1", "0"], ["0", "-1"]],
    },
}

# the same shape over Q(k1, k2) with one constraint
PARAM_BUNDLE = {
    **Q_BUNDLE,
    "ring": {"params": ["k1", "k2"], "constraints": ["k1*k2 - 2"]},
    "maps": {
        "a": [["1", "0"], ["k2", "1"]],
        "b": [["k1", "0"], ["0", "1"]],
        "D": [["0", "k1"], ["0", "0"]],
        "f": [["1", "0"], ["0", "-1"]],
    },
}

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.text("k12e ,()*/-", max_size=5),
    st.lists(st.integers(-1, 3), max_size=5),
    st.dictionaries(st.sampled_from(["arity", "entries", "x"]), st.integers(0, 3), max_size=2),
)
COEFF_TEXT = st.text("k12 +-*/^()0.x", max_size=8)
OP_NAMES = st.sampled_from(["mul", "br", "star", "tbr", "nbr", "cyc", "x y", "", "a", "q"])


def paths(node, prefix=()):
    """Every (container path, key) inside a JSON value, outermost first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix, key
        child = node[key]
        if isinstance(child, (dict, list)) and child:
            yield from paths(child, (*prefix, key))


def at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def bundles(draw):
    """A valid bundle with up to three mutations: a dropped or retyped field,
    a random coefficient or constraint text, or a bad op arity or name."""
    data = copy.deepcopy(draw(st.sampled_from([Q_BUNDLE, PARAM_BUNDLE])))
    for _ in range(draw(st.integers(0, 3))):
        if not data:
            break
        path, key = draw(st.sampled_from(list(paths(data))))
        parent = at(data, path)
        kind = draw(st.sampled_from(["drop", "retype", "coeff", "constraint", "arity", "name"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[key]
        elif kind in ("drop", "retype"):
            parent[key] = draw(JSON_VALUES)
        elif kind == "coeff":
            parent[key] = draw(COEFF_TEXT)
        elif kind == "constraint":
            data["ring"] = {
                "params": data.get("ring", {}).get("params", []),
                "constraints": draw(st.lists(COEFF_TEXT, max_size=2)),
            }
        elif isinstance(data.get("ops"), dict) and data["ops"]:
            name = draw(st.sampled_from(sorted(data["ops"])))
            if kind == "arity" and isinstance(data["ops"][name], dict):
                data["ops"][name]["arity"] = draw(st.one_of(st.integers(-1, 4), JSON_VALUES))
            else:
                data["ops"][draw(OP_NAMES)] = data["ops"].pop(name)
    return data


IDL_TOKENS = [
    "forall", "x", "y", "z", ",", ":", "(", ")", "=", "0", "+", "-", "*", "2", "^",
    "-1", "a", "b", "D", "mul", "br", "star", "tbr", "cyc", "{", "}", "#", "\n",
]
LAW_TEXTS = sorted(print_identity(ident) for ident in IDENTITIES.values())


@st.composite
def idl_texts(draw):
    """Token soup, or a shipped law with a few characters deleted, replaced
    or inserted."""
    if draw(st.booleans()):
        return " ".join(draw(st.lists(st.sampled_from(IDL_TOKENS), max_size=25)))
    text = draw(st.sampled_from(LAW_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.text("xyzab(),:=+-*^0123 ", max_size=2))
        text = text[:i] + piece + text[i + draw(st.integers(0, 2)):]
    return text


COMMANDS = st.one_of(
    st.tuples(
        st.just("check"),
        st.sampled_from([*REGISTRY, "tbp-nlie", "nope"]),
        st.sampled_from([(), ("--mode", "sampled", "--samples", "1")]),
    ).map(lambda t: ["check", "{bundle}", "--structure", t[1], *t[2]]),
    st.sampled_from([*SUITES, "lemma31"]).map(
        lambda s: ["identities", "{bundle}", "--set", s]
    ),
    st.tuples(
        st.sampled_from(
            [
                ("derivation-tbp",),
                ("pre-lie",),
                ("np-commutator",),
                ("ternary-d",),
                ("ternary-f",),
                ("ternary-m",),
                ("twist", "--op", "mul=a,b"),
                ("twist", "--op", "tbr=a,b^-1,a^2"),
            ]
        ),
        st.sampled_from([(), ("--allow-hypothesis-failures",)]),
    ).map(lambda t: ["construct", t[0][0], "{bundle}", "-o", "{out}", *t[0][1:], *t[1]]),
    st.sampled_from(["bp-tbp", "pre-lie-poisson"]).map(
        lambda k: ["tensor", "{bundle}", "{bundle}", "--kind", k, "-o", "{out}"]
    ),
    st.just(["dsl", "check", "{idl}", "{bundle}"]),
    st.tuples(
        st.sampled_from(["26", "20,24", "25-26", "5-3", "27", "0", "x", ""]),
        st.sampled_from([(), ("--mode", "sampled", "--samples", "1")]),
    ).map(lambda t: ["catalog", "verify", "--entries", t[0], *t[1]]),
    st.sampled_from(["1", "26", "27", "0", "-1", "x"]).map(lambda n: ["catalog", "show", n]),
)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=bundles(), idl=idl_texts(), argv=COMMANDS)
def test_cli_exit_code_contract(folder, data, idl, argv):
    files = {"bundle": folder / "in.bundle", "idl": folder / "in.idl", "out": folder / "out.bundle"}
    files["bundle"].write_text(json.dumps(data), encoding="utf-8")
    files["idl"].write_text(idl, encoding="utf-8")
    argv = [arg.format(**files) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    assert code in (0, 1, 2)
