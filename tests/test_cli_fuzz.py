"""Mutated documents on the command line: every run ends in exit 0, 1 or 2.

Exit 3 is kept for internal errors and broken contracts, so a document with
a field dropped, retyped or changed must never reach it, whichever reader
meets the field first.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from bidfair.cli import main

# fields whose readers check values, not only shapes
FOCUS = {"share", "ratio", "share_kind", "id", "agent", "winner", "items", "agent_ids",
         "target_rho", "bundle_value", "guess", "rho", "mode", "epsilon", "entitlement"}
RATIONALS = ["0/1", "1/3", "-1/2", "7/2", "1/0", "2/4", "x", "", "1.5"]
WORDS = ["aps", "mms", "both", "a0", "a1", "a9", "e00", "e01", "e99", ""]


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """An instance, a `play` report with guarantee entries and an
    `alloc --check-exact` report, each as a parsed document."""
    root = tmp_path_factory.mktemp("documents")
    inst, play, alloc = root / "inst.json", root / "play.json", root / "alloc.json"
    assert _run("gen", "random", "--seed", "2", "--agents", "2", "--items", "3", "-o", str(inst)) == 0
    assert _run("play", str(inst), "--strategy", "a0=proportional", "--report-shares", "aps",
                "--target-rho", "1/3", "-o", str(play)) == 0
    assert _run("alloc", str(inst), "--epsilon", "1/4", "--check-exact", "-o", str(alloc)) == 0
    docs = {name: json.loads(path.read_text()) for name, path in
            [("instance", inst), ("play", play), ("alloc", alloc)]}
    return root, docs


def _paths(node, path=()):
    """Every path below ``node`` into a JSON tree, as a tuple of keys and indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


json_scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3)
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=2)
                           | st.dictionaries(st.sampled_from(WORDS), inner, max_size=2), max_leaves=4)
plausible = st.sampled_from(RATIONALS + WORDS) | st.integers(-1, 3) | st.lists(st.sampled_from(WORDS), max_size=3)


@st.composite
def mutations(draw, doc):
    """``doc``, copied, with one to three fields dropped, retyped or changed."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        focus = [p for p in paths if p[-1] in FOCUS]
        path = draw(st.sampled_from(focus) if focus and draw(st.booleans()) else st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "retype", "change"]))
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values if action == "retype" else plausible)
    return doc


def _exits(root, doc, *command):
    path = root / "fuzzed.json"
    path.write_text(json.dumps(doc))
    return _run(*command[:1], str(path), *command[1:])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_instances_exit_0_1_or_2(documents, data):
    root, docs = documents
    doc = data.draw(mutations(docs["instance"]))
    assert _exits(root, doc, "shares") in (0, 1, 2)
    assert _exits(root, doc, "play", "--report-shares", "mms", "--target-rho", "1/3",
                  "--strategy", "a0=proportional:share=aps") in (0, 1, 2)
    assert _exits(root, doc, "alloc", "--epsilon", "1/4") in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["play", "alloc"]))
def test_mutated_reports_exit_0_1_or_2(documents, data, kind):
    root, docs = documents
    assert _exits(root, data.draw(mutations(docs[kind])), "verify") in (0, 1, 2)
