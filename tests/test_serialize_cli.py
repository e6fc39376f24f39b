"""File formats (lossless, exact, deterministic) and the command-line surface."""

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bidfair import cli, wrapper
from bidfair.cli import main
from bidfair.engine import GameConfig, TieBreak, run_game, verify_transcript
from bidfair.model import make_instance
from bidfair.negatives import gen_random_submodular, gen_xos_hard
from bidfair.serialize import (
    ParseError,
    config_from_dict,
    config_to_dict,
    dumps,
    instance_from_dict,
    instance_to_dict,
    loads,
    parse_rational,
    rational_str,
    report_to_dict,
    transcript_from_dict,
    transcript_to_dict,
)
from bidfair.strategies import GreedyMarginalBidder, RandomBidder
from bidfair.valuations import (
    AdditiveValuation,
    RowSubstitutesValuation,
    ScaledValuation,
    TableValuation,
    UnitDemandValuation,
    WeightedCoverageValuation,
    XOSValuation,
)

RATIONAL = re.compile(r"^-?\d+/\d+$")


def test_rational_strings():
    assert rational_str(Fraction(1, 3)) == "1/3"
    assert rational_str(Fraction(-4, 6)) == "-2/3"
    assert rational_str(Fraction(0)) == "0/1"
    assert rational_str(2) == "2/1"
    assert rational_str(-7) == "-7/1"
    assert rational_str(0) == "0/1"
    assert parse_rational("22/7") == Fraction(22, 7)
    assert parse_rational("5") == Fraction(5)
    with pytest.raises(ParseError):
        parse_rational("1.5x")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    for _ in range(2):  # a second call answers the same
        assert parse_rational(" 3/6 ") == Fraction(1, 2)
        assert parse_rational(7) == Fraction(7)
        with pytest.raises(ParseError, match=r"^bad rational '1/0'$"):
            parse_rational("1/0")
        with pytest.raises(ParseError, match=r"^bad rational \[1\]$"):
            parse_rational([1])


def probe_bundles(items):
    out = [frozenset(), frozenset(items)]
    for e in items:
        out.append(frozenset([e]))
    if len(items) >= 2:
        out.append(frozenset(items[:2]))
    return out


def test_instance_round_trip_all_valuation_kinds():
    items = ["e1", "e2", "e3"]
    table = {}
    for mask in range(8):
        bundle = frozenset(items[i] for i in range(3) if mask >> i & 1)
        table[bundle] = Fraction(bin(mask).count("1"))
    valuations = [
        AdditiveValuation({"e1": Fraction(1, 3), "e2": 2, "e3": 0}),
        UnitDemandValuation({"e1": 4, "e2": Fraction(7, 2), "e3": 1}),
        XOSValuation([{"e1": 1, "e2": 1}, {"e3": Fraction(5, 2)}]),
        RowSubstitutesValuation([["e1", "e2"], ["e3"]], [1, Fraction(1, 2)]),
        WeightedCoverageValuation({"u1": 2, "u2": 3}, {"e1": {"u1"}, "e2": {"u1", "u2"}, "e3": set()}),
        TableValuation(items, table),
    ]
    share = Fraction(1, len(valuations))
    inst = make_instance(items, [(f"a{i}", share, v) for i, v in enumerate(valuations)])
    doc = instance_to_dict(inst)
    back = instance_from_dict(loads(dumps(doc)))
    assert back.items == inst.items
    for orig, copy in zip(inst.agents, back.agents):
        assert copy.entitlement == orig.entitlement
        for bundle in probe_bundles(items):
            assert copy.valuation.value(bundle) == orig.valuation.value(bundle)
    assert dumps(instance_to_dict(back)) == dumps(doc)


def test_all_serialized_rationals_are_exact_strings():
    inst = gen_random_submodular(3, 3, 5, entitlements="random")
    doc = instance_to_dict(inst)
    for agent in doc["agents"]:
        assert RATIONAL.match(agent["entitlement"])
        for w in agent["valuation"]["universe"].values():
            assert RATIONAL.match(w)
    text = dumps(doc)
    assert not re.search(r"\d+\.\d+", text)  # no decimal literals anywhere


def test_xos_report_bytes_are_pinned():
    # SHA-256 recorded when rational_str still re-wrapped each value in a
    # Fraction; unlike the transcript pin, the report holds the XOS clauses
    run = gen_xos_hard(16, 2)
    _, tr = run.execute()
    text = dumps(report_to_dict(run.instance, tr))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9d517c19cb0ccda9703383120700b195ea090ce940256116d03211e0e5221992"
    )


# strings with non-ASCII letters, quotes, backslashes and control characters
json_text = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7fé\u2028\U0001f600'), max_size=4)
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
                | st.fractions() | st.floats() | json_text)


def json_containers(children):
    """Lists, tuples and objects of ``children``; an object's keys share one type."""
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(json_text, children, max_size=4)
            | st.dictionaries(st.integers(-9, 9), children, max_size=3)
            | st.dictionaries(st.booleans(), children, max_size=2)
            | st.dictionaries(st.none(), children, max_size=1))


json_trees = st.recursive(json_scalars, json_containers, max_leaves=24)


@st.composite
def deep_documents(draw):
    """A tree nested at least four containers deep, empty ones included."""
    doc = draw(json_trees)
    for _ in range(draw(st.integers(4, 6))):
        siblings = draw(st.lists(json_trees, max_size=2))
        kind = draw(st.sampled_from(["list", "tuple", "object"]))
        if kind == "object":
            doc = {draw(json_text): doc, **{f"{k}~": v for k, v in zip("abc", siblings)}}
        else:
            doc = [*siblings[:1], doc, *siblings[1:]]
            doc = tuple(doc) if kind == "tuple" else doc
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=deep_documents() | json_trees)
def test_dumps_writes_json_dumps_text(doc):
    # the pure-Python encoder json uses whenever an indent is given is the oracle
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2, default=rational_str) + "\n"


def test_config_round_trip():
    configs = [
        GameConfig(),
        GameConfig(mode="multi_pick", tie=TieBreak("seeded", seed=9)),
        GameConfig(mode="altruistic", rho=Fraction(10, 27),
                   tie=TieBreak("adversarial", target="p")),
        GameConfig(strict_threshold=True, tie=TieBreak("scripted", prefs=(("a", "b"), ("b",)))),
        GameConfig(mode="altruistic", rho=Fraction(1, 2), strict_threshold=False),
    ]
    for config in configs:
        assert config_from_dict(loads(dumps(config_to_dict(config)))) == config


def test_transcript_round_trip_still_verifies():
    inst = gen_random_submodular(4, 3, 6)
    strategies = {
        "a0": GreedyMarginalBidder(inst.valuation("a0")),
        "a1": RandomBidder(17),
        "a2": RandomBidder(18),
    }
    config = GameConfig(tie=TieBreak("seeded", seed=5))
    _, tr = run_game(inst, strategies, config)
    doc = transcript_to_dict(tr)
    back = transcript_from_dict(loads(dumps(doc)))
    assert back == tr
    assert verify_transcript(back, inst)
    assert dumps(transcript_to_dict(back)) == dumps(doc)


def test_bad_documents_rejected():
    with pytest.raises(ParseError):
        loads("{nope")
    with pytest.raises(ParseError):
        instance_from_dict({"format": "bidfair/other", "version": 1})
    with pytest.raises(ParseError):
        instance_from_dict({"format": "bidfair/instance", "version": 99})
    with pytest.raises(ParseError):
        instance_from_dict(
            {"format": "bidfair/instance", "version": 1, "items": [], "agents": [{"id": "a"}]}
        )


@pytest.mark.parametrize(
    "valuation, message",
    [
        ({"kind": "row_substitutes", "rows": [[{}]], "weights": ["1/1"]}, "every row item must be a string"),
        ({"kind": "table", "items": [{}], "values": []}, "every table item must be a string"),
        ({"kind": "table", "items": ["x"], "values": [[[], "0/1"], [[{}], "1/1"]]},
         "every table entry's item must be a string"),
    ],
)
def test_item_ids_inside_valuations_must_be_strings(valuation, message):
    agent = {"id": "a", "entitlement": "1/1", "valuation": valuation}
    with pytest.raises(ParseError, match=message):
        instance_from_dict({"format": "bidfair/instance", "version": 1, "items": ["x"], "agents": [agent]})


# ------------------------------------------------------------ CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_shares_play_verify_flow(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    assert run_cli("gen", "random", "--seed", "5", "--agents", "3", "--items", "6",
                   "-o", str(inst_path)) == 0
    assert run_cli("shares", str(inst_path), "--share", "both", "-o",
                   str(tmp_path / "shares.json")) == 0
    shares_doc = json.loads((tmp_path / "shares.json").read_text())
    assert all(RATIONAL.match(s["aps"]) and RATIONAL.match(s["mms"]) for s in shares_doc["shares"])
    assert run_cli(
        "play", str(inst_path),
        "--strategy", "a0=proportional:share=aps",
        "--default-strategy", "greedy",
        "--tiebreak", "adversarial", "--target", "a0",
        "--report-shares", "aps", "--target-rho", "0/1",
        "-o", str(report_path),
    ) == 0
    assert run_cli("verify", str(report_path)) == 0
    capsys.readouterr()

    # tampering with a recorded payment must fail verification
    doc = json.loads(report_path.read_text())
    doc["transcript"]["rounds"][0]["payment"] = "999/1"
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad_path)) == 1
    assert "round 1: payment by " in capsys.readouterr().err


def test_cli_verify_rejects_broken_altruistic_transcript(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "8", "--agents", "2", "--items", "4", "-o", str(inst_path))
    assert run_cli(
        "play", str(inst_path), "--mode", "altruistic", "--rho", "1/3",
        "--default-strategy", "greedy", "-o", str(report_path),
    ) == 0
    assert run_cli("verify", str(report_path)) == 0
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    # an agent keeps bidding after blowing past the spend cap
    rounds = doc["transcript"]["rounds"]
    spender = rounds[0]["winner"]
    first_forged = next(r["number"] for r in rounds if spender not in r["bids"])
    for rnd in rounds:
        rnd["bids"].setdefault(spender, "1/1000")
    (tmp_path / "forged.json").write_text(json.dumps(doc))
    assert run_cli("verify", str(tmp_path / "forged.json")) == 1
    assert f"round {first_forged}: bidders by {spender}" in capsys.readouterr().err


def test_cli_builtin_negative_runs(tmp_path):
    out = tmp_path / "neg.json"
    assert run_cli("play", "--builtin", "altruistic-negative", "--k", "2", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["reproduced"] is True
    assert doc["agent_value"] == "1/1"
    assert doc["share"] == "5/2"
    assert run_cli("play", "--builtin", "xos-hard", "--agents", "16", "--k", "2",
                   "-o", str(tmp_path / "xos.json")) == 0


def test_cli_gen_builtin_instances(tmp_path):
    for kind in ("altruistic-negative", "original-negative", "modified-negative"):
        path = tmp_path / f"{kind}.json"
        assert run_cli("gen", kind, "--k", "1", "-o", str(path)) == 0
        instance_from_dict(loads(path.read_text()))
    assert run_cli("gen", "xos-hard", "--agents", "16", "--k", "2",
                   "-o", str(tmp_path / "xos.json")) == 0


# SHA-256 of the documents `bidfair gen KIND --k K` and `bidfair play --builtin
# KIND --k K` write for the staged constructions, recorded before their three
# layouts were folded into one builder.
STAGED_DOCUMENT_DIGESTS = {
    ("altruistic-negative", 1): (
        "0b17edae78501a0e48d28ccd41d7e6cb61c0a5d297b659876e1b055d73ed57b0",
        "a6854bf41acfb6a84533b34d198aec82b38861e9404fb53c8a25a76de1ab7597",
    ),
    ("altruistic-negative", 2): (
        "cc72c1aa260dc08934f61505eb293b4435cc969b466e77e606e3cfd4e0ffeba5",
        "98b42c66f4a16596bb98abac2e34755f5d96b2dc38c23b053d5fa5a938a8f4b7",
    ),
    ("altruistic-negative", 3): (
        "bc037f415602ef4c779923cce25d4cf1b08b834d5f53abec70c8c7773544cd97",
        "53449313089e37a20a30d43976bf210c73bfd0de51c44dc00f8de194cd720644",
    ),
    ("original-negative", 1): (
        "0b17edae78501a0e48d28ccd41d7e6cb61c0a5d297b659876e1b055d73ed57b0",
        "17e8547e710389be578d57f574b496abc5c0a286efaa851c7b73470985fc7658",
    ),
    ("original-negative", 2): (
        "02da488a661e4045aaaabe71a23a94d723f3d077566857b76053bea2efb912eb",
        "e900563b475d91a57966825b78111947d9c7326a2fc1e960fb5df7f5551a3201",
    ),
    ("original-negative", 3): (
        "089beab6f52101b2dbbf6efb39bd6062539433e2a700d17d465ceceb5e48e20c",
        "b924f4ab9a5014797acb5ec99b74a9631c2df971c44a03bf7802ff42182e3aca",
    ),
    ("modified-negative", 1): (
        "daa21d449a01a751b9c13077f19a7f38dd588e2051c40e8baaef265a30a67f53",
        "956f5f8f5c06e4cf9fac4e285668942f1ca36ce81f381f1b7c4720d3737da502",
    ),
    ("modified-negative", 2): (
        "8111585446e2b6ea80fabfac8be09d5f75faf0d949f5b0f04a40ee9113943939",
        "24c504c3a3ef5f870a5e30fadffdc74e341a6c56864ee50d51895e381c5e2992",
    ),
    ("modified-negative", 3): (
        "c77bf75999fa3111b74f2e00683f79f2d2bab2398b75c41eaf6a8caeb708f05a",
        "3f44cf584f1d9d6165fecbcb7ec9b7a3b79c856f7a698df56c3db33a05e72360",
    ),
}


@pytest.mark.parametrize("kind, k", list(STAGED_DOCUMENT_DIGESTS))
def test_cli_staged_builtin_documents_are_pinned(tmp_path, kind, k):
    digests = []
    for command in (("gen", kind), ("play", "--builtin", kind)):
        path = tmp_path / f"{command[0]}.json"
        assert run_cli(*command, "--k", str(k), "-o", str(path)) == 0
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == STAGED_DOCUMENT_DIGESTS[kind, k]


@pytest.mark.parametrize(
    "options, counted, digest",
    [
        (["--default-strategy", "proportional", "--report-shares", "aps"], "aps_exact",
         "5f500aaf8c8a8b3c7fd254cf084bd88b6fd5553fe0ae10d2e96d8383f2192912"),
        (["--mode", "altruistic", "--rho", "10/27", "--default-strategy", "altruistic",
          "--report-shares", "mms"], "mms_exact",
         "83eddee01c354345ec5dda5bb3aec92cce1f88fd8f0dddc70aa0906de987a8f7"),
    ],
    ids=["aps", "mms"],
)
def test_cli_play_computes_each_share_once(tmp_path, monkeypatch, options, counted, digest):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "1", "-o", str(inst_path))
    calls = []
    exact = getattr(cli, counted)

    def counting(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(cli, counted, counting)
    assert run_cli("play", str(inst_path), *options, "-o", str(report_path)) == 0
    assert len(calls) == 3  # one share per agent, for its strategy and the report alike
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == digest


def test_cli_alloc_with_exact_check(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "6", "--agents", "3", "--items", "6",
            "--entitlements", "random", "-o", str(inst_path))
    out = tmp_path / "alloc.json"
    assert run_cli("alloc", str(inst_path), "--epsilon", "1/10", "--mode", "aps",
                   "--check-exact", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["conditional_calls"] >= 1
    assert all(entry["passed"] for entry in doc["guarantees"])
    assert run_cli("verify", str(out)) == 0

    # verify re-checks each flag as value >= (1 - epsilon) * rho * share
    doc["guarantees"][0]["passed"] = False
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad)) == 1
    agent = doc["guarantees"][0]["agent"]
    assert f"guarantee flag for {agent} is wrong" in capsys.readouterr().err
    # malformed guarantee entries are input errors, not tracebacks
    for broken in ({k: v for k, v in doc.items() if k != "epsilon"}, {**doc, "guarantees": ["oops"]}):
        bad.write_text(json.dumps(broken))
        assert run_cli("verify", str(bad)) == 2
    capsys.readouterr()

    # the recorded inputs are checked too: each rho is the mode's guarantee for
    # the agent's entitlement, and the mode and epsilon are ones alloc accepts
    doc = json.loads(out.read_text())
    doc["guarantees"][0]["rho"] = "1/1000"
    bad.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad)) == 1
    assert f"recorded rho for {agent} is wrong" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    for field, value in (("mode", "apss"), ("mode", "standard"), ("epsilon", "1"), ("epsilon", "0")):
        bad.write_text(json.dumps({**doc, field: value}))
        assert run_cli("verify", str(bad)) == 2
        assert f"'{field}' must" in capsys.readouterr().err


def test_cli_alloc_takes_a_value_spread_beyond_floats(tmp_path):
    # K = 10**400 as a float overflows; the call budget takes log K from ints
    inst_path = tmp_path / "inst.json"
    inst = make_instance(["e1", "e2"], [("a", 1, AdditiveValuation({"e1": 1, "e2": Fraction(1, 10**400)}))])
    inst_path.write_text(dumps(instance_to_dict(inst)))
    out = tmp_path / "alloc.json"
    assert run_cli("alloc", str(inst_path), "--epsilon", "1/10", "-o", str(out)) == 0
    assert run_cli("verify", str(out)) == 0


@pytest.mark.parametrize("options", [(), ("--epsilon", "1/10"), ("--mode", "mms")])
def test_cli_alloc_instance_without_items(tmp_path, options):
    # the APS default epsilon, 2/(3m), takes m as 1 when there are no items
    inst_path = tmp_path / "empty.json"
    inst = make_instance([], [("a", Fraction(1, 2), AdditiveValuation({})),
                              ("b", Fraction(1, 2), AdditiveValuation({}))])
    inst_path.write_text(dumps(instance_to_dict(inst)))
    out = tmp_path / "alloc.json"
    assert run_cli("alloc", str(inst_path), *options, "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["transcript"]["allocation"] == {"a": [], "b": []}
    if not options:
        assert doc["epsilon"] == "2/3"


# SHA-256 of `bidfair alloc` reports, recorded before the entry code moved into
# one builder that `bidfair verify` re-runs.
ALLOC_DOCUMENT_DIGESTS = {
    ("random", "--mode", "aps", "--epsilon", "1/10"):
        "29201af11901a5b73353664f87a30dd5da47a89172a8f4a89b4197785287af05",
    ("random", "--mode", "aps", "--epsilon", "1/10", "--check-exact"):
        "2cec37760a07686584bb2aaa925be568e7f9a012315fd7496481a6044a30bc8a",
    ("equal", "--mode", "mms", "--check-exact"):
        "c7dad0af4452b78867b2d6de1877c72d8854290faeaec7dc487166448a13aff7",
}


@pytest.mark.parametrize("argv", list(ALLOC_DOCUMENT_DIGESTS))
def test_cli_alloc_documents_are_pinned(tmp_path, argv):
    entitlements, *options = argv
    inst_path = tmp_path / "inst.json"
    out = tmp_path / "alloc.json"
    run_cli("gen", "random", "--seed", "6", "--agents", "3", "--items", "6",
            "--entitlements", entitlements, "-o", str(inst_path))
    assert run_cli("alloc", str(inst_path), *options, "-o", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALLOC_DOCUMENT_DIGESTS[argv]
    assert run_cli("verify", str(out)) == 0


def _alloc_report(tmp_path):
    """The path and document of an `alloc --check-exact` report on equal
    entitlements that took three games."""
    inst_path = tmp_path / "inst.json"
    out = tmp_path / "alloc.json"
    run_cli("gen", "random", "--seed", "4", "--agents", "3", "--items", "6", "-o", str(inst_path))
    assert run_cli("alloc", str(inst_path), "--epsilon", "1/10", "--check-exact", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["conditional_calls"] == 3
    return out, doc


def _mms_at_ten_27ths(doc):
    doc["mode"] = "mms"
    for entry in doc["guarantees"]:
        entry["rho"] = "10/27"


def _unchecked_failures(doc):
    # without a share the re-run does no exact check, so it writes no flag
    for entry in doc["guarantees"]:
        del entry["share"]
        entry["passed"] = False


def _set(field, value):
    return lambda doc: doc.update({field: value})


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_mms_at_ten_27ths, "recorded transcript is wrong"),
        (lambda doc: doc["guarantees"][0].update(guess="1/1000"), "recorded guess for a0 is wrong"),
        (_set("conditional_calls", -7), "recorded conditional calls is wrong"),
        (_set("conditional_calls", 0), "recorded conditional calls is wrong"),
        (_set("conditional_calls", 2), "recorded conditional calls is wrong"),
        (_set("conditional_calls", 4), "recorded conditional calls is wrong"),
        (lambda doc: doc["guarantees"].pop(), "recorded guarantees cover 2 agents, not 3"),
        (lambda doc: doc["guarantees"].pop(0), "recorded agent for a0 is wrong"),
        (_unchecked_failures, "recorded passed for a0 is not in the rebuilt entry"),
    ],
    ids=["mms", "guess", "calls-7", "calls0", "calls-1", "calls+1", "drop-last", "drop-first", "no-share"],
)
def test_cli_verify_reruns_alloc(tmp_path, capsys, tamper, message):
    out, doc = _alloc_report(tmp_path)
    tamper(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    assert capsys.readouterr().err == message + "\n"


def test_cli_verify_rejects_mms_on_unequal_entitlements(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    out = tmp_path / "alloc.json"
    run_cli("gen", "random", "--seed", "6", "--agents", "3", "--items", "6",
            "--entitlements", "random", "-o", str(inst_path))
    assert run_cli("alloc", str(inst_path), "--epsilon", "1/10", "--check-exact", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    _mms_at_ten_27ths(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 2
    assert capsys.readouterr().err == "error: the spend-capped game guarantee needs equal entitlements\n"


def test_cli_verify_plays_no_more_games_than_alloc(tmp_path, monkeypatch):
    # at epsilon 1/10**9 the refinement would take millions of games
    out, doc = _alloc_report(tmp_path)
    out.write_text(json.dumps({**doc, "epsilon": "1/1000000000"}))
    games = []
    play = wrapper.conditional_allocate

    def counting(*args, **kwargs):
        games.append(args)
        return play(*args, **kwargs)

    monkeypatch.setattr(wrapper, "conditional_allocate", counting)
    assert run_cli("verify", str(out)) == 1
    assert len(games) == doc["conditional_calls"] + 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "altruistic-negative", "--k", "5"),
        ("gen", "altruistic-negative", "--k", "0"),
        ("play", "--builtin", "original-negative", "--k", "5"),
        ("gen", "xos-hard", "--agents", "3", "--k", "2"),
        ("gen", "xos-hard", "--agents", "4", "--k", "0"),
        ("play", "--builtin", "xos-hard", "--agents", "4", "--k", "0"),
        ("gen", "random", "--agents", "0"),
        ("gen", "random", "--agents", "-1"),
        ("gen", "random", "--items", "-1"),
        ("gen", "random", "--universe", "0"),
        ("gen", "random", "--universe", "-1"),
    ],
)
def test_cli_out_of_range_generator_arguments_are_input_errors(capsys, argv):
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("command", ["gen", "play"])
@pytest.mark.parametrize("kind", ["altruistic-negative", "original-negative", "modified-negative"])
def test_cli_staged_runs_stop_at_k3(capsys, command, kind):
    argv = ("gen", kind) if command == "gen" else ("play", "--builtin", kind)
    assert run_cli(*argv, "--k", "4") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: k must be between 1 and 3 at desk scale\n"


def test_cli_lpcert(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli("lpcert", "--z", "27/10", "--n", "inf", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["feasible"] is False
    assert doc["certificate"] == ["9/5", "1/1", "1/5", "1/2"]
    assert doc["combined_constant"] == "0/1"
    assert run_cli("lpcert", "--z", "13/5", "--n", "100", "-o", str(out)) == 0
    assert json.loads(out.read_text())["feasible"] is True
    assert run_cli("lpcert", "--z", "2/1", "--n", "10") == 2  # below validity floor


def test_cli_lpcert_non_integer_n_is_input_error(capsys):
    assert run_cli("lpcert", "--z", "27/10", "--n", "abc") == 2
    assert "--n must be an integer" in capsys.readouterr().err


def test_cli_bad_random_seed_is_input_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "1", "--agents", "2", "--items", "4", "-o", str(inst_path))
    assert run_cli("play", str(inst_path), "--default-strategy", "random:seed=x") == 2
    assert "random seed must be an integer" in capsys.readouterr().err


def test_cli_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("shares", str(missing)) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run_cli("shares", str(bad)) == 2
    assert run_cli("verify", str(bad)) == 2
    capsys.readouterr()


def test_cli_size_guard_is_input_error(tmp_path):
    inst_path = tmp_path / "big.json"
    run_cli("gen", "xos-hard", "--agents", "16", "--k", "2", "-o", str(inst_path))
    assert run_cli("shares", str(inst_path)) == 2  # 32 items exceed the guard


def test_cli_bad_size_guard_setting_is_input_error(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "1", "--agents", "2", "--items", "4", "-o", str(inst_path))
    monkeypatch.setenv("BIDFAIR_SIZE_GUARD", "abc")
    assert run_cli("shares", str(inst_path)) == 2
    assert capsys.readouterr().err == "error: BIDFAIR_SIZE_GUARD must be a nonnegative integer, not 'abc'\n"


def test_cli_verify_round_with_bids_list_is_input_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "2", "--agents", "2", "--items", "4", "-o", str(inst_path))
    assert run_cli("play", str(inst_path), "-o", str(report_path)) == 0
    doc = json.loads(report_path.read_text())
    doc["transcript"]["rounds"][0]["bids"] = []
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(report_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'bids' must be an object, not list" in err


MISSING = object()


def _play_report(tmp_path):
    """The path and document of a passing play report with APS guarantee entries."""
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "2", "--agents", "2", "--items", "4", "-o", str(inst_path))
    assert run_cli("play", str(inst_path), "--report-shares", "aps", "--target-rho", "1/3",
                   "-o", str(report_path)) == 0
    return report_path, json.loads(report_path.read_text())


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("transcript", "config"), [], "'config' must be an object, not list"),
        (("transcript", "config", "tie"), "x", "'tie' must be an object, not str"),
        (("transcript", "allocation"), [], "'allocation' must be an object, not list"),
        (("instance",), [], "'instance' must be an object, not list"),
        (("transcript",), "x", "'transcript' must be an object, not str"),
        (("instance",), MISSING, "missing 'instance'"),
        (("transcript",), MISSING, "missing 'transcript'"),
        (("instance", "items"), "abcd", "'items' must be a list, not str"),
        (("transcript", "agent_ids"), "a0", "'agent_ids' must be a list, not str"),
        (("transcript", "unallocated"), "e9", "'unallocated' must be a list, not str"),
        (("transcript", "allocation", "a0"), "e0", "'a0' must be a list, not str"),
        (("instance", "agents", 0, "id"), 1, "every agent id must be a string"),
        (("instance", "agents", 1, "id"), None, "every agent id must be a string"),
        (("instance", "agents", 0, "id"), True, "every agent id must be a string"),
        (("instance", "items"), [1, 2, 3, 4], "every item must be a string"),
        (("transcript", "agent_ids"), [1, "a1"], "every agent id must be a string"),
        (("transcript", "unallocated"), [["x"]], "every unallocated item must be a string"),
        (("transcript", "allocation", "a0"), [{"e00": 1}], "every allocated item must be a string"),
        (("transcript", "rounds", 0, "items"), [["e00"]], "every picked item must be a string"),
        (("transcript", "rounds", 0, "winner"), 0, "every round winner must be a string"),
        (("transcript", "config", "strict_threshold"), "no", "'strict_threshold' must be a boolean, not str"),
        (("transcript", "config", "tie", "seed"), "x", "'seed' must be an integer, not str"),
        (("transcript", "config", "tie", "seed"), True, "'seed' must be an integer, not bool"),
        (("transcript", "config", "tie", "target"), 1, "'target' must be a string, not int"),
        (("transcript", "config", "tie", "prefs"), "a0", "'prefs' must be a list, not str"),
        (("transcript", "config", "tie", "prefs"), ["a0"], "every tie preference must be a list"),
        (("transcript", "config", "tie", "prefs"), [[1, 2]], "every preferred agent must be a string"),
        (("transcript", "rounds", 0, "number"), "1", "every round number must be an integer"),
        (("transcript", "rounds", 0, "number"), True, "every round number must be an integer"),
        (("transcript", "violations"), [1], "every violation must be a string"),
        (("guarantees", 0, "passed"), "no", "'passed' must be a boolean, not str"),
        (("guarantees", 0, "passed"), 1, "'passed' must be a boolean, not int"),
        (("guarantees", 0, "passed"), None, "'passed' must be a boolean, not NoneType"),
        (("guarantees", 0, "share_kind"), 7, "'share_kind' must be \"aps\" or \"mms\", not 7"),
        (("guarantees", 0, "share_kind"), "both", "'share_kind' must be \"aps\" or \"mms\", not 'both'"),
        (("guarantees", 1, "share_kind"), MISSING, "bad guarantee entry: 'share_kind'"),
        (("guarantees", 0, "ratio"), "banana", "bad rational 'banana'"),
        (("guarantees", 1, "ratio"), MISSING, "bad guarantee entry: 'ratio'"),
        (("instance", "agents", 0), ["a0"], "every agent must be an object"),
        (("instance", "agents", 0, "valuation", "covers", "e00"), [{}], "every covered element must be a string"),
        (("transcript", "rounds", 0, "bids", "a0"), "1/0", "bad transcript document: bad rational '1/0'"),
        (("transcript", "rounds", 0, "bids", "a0"), "x", "bad transcript document: bad rational 'x'"),
        (("transcript", "rounds", 0, "bids", "a0"), None, "bad transcript document: bad rational None"),
        (("transcript", "rounds", 0, "bids", "a0"), [], "bad transcript document: bad rational []"),
        (("transcript", "rounds", 0, "bids", "a0"), {}, "bad transcript document: bad rational {}"),
    ],
)
def test_cli_verify_malformed_report_is_input_error(tmp_path, capsys, path, value, message):
    report_path, doc = _play_report(tmp_path)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(report_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "agent, changes, code",
    [
        (0, {"ratio": "7"}, 1),
        (1, {"ratio": None}, 1),
        (0, {"share": "0"}, 1),  # 0 is not a0's APS, which verify recomputes
        (1, {"ratio": "2/2"}, 0),  # any spelling of value/share
        (1, {"share_kind": "mms"}, 0),
    ],
)
def test_cli_verify_checks_the_recorded_ratio(tmp_path, capsys, agent, changes, code):
    report_path, doc = _play_report(tmp_path)
    entry = doc["guarantees"][agent]
    assert entry["ratio"] == ("11/14", "1/1")[agent]
    entry.update(changes)
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(report_path)) == code
    if code:
        wrong = "share" if "share" in changes else "ratio"
        assert capsys.readouterr().err == f"recorded {wrong} for {entry['agent']} is wrong\n"


def test_cli_verify_recomputes_play_shares(tmp_path, capsys):
    # both agents' APS is 14; a consistent report with a smaller share is still wrong
    report_path, doc = _play_report(tmp_path)
    for share, scale in (("0", None), ("1/100", 100)):  # ratio null, or value / share
        tampered = json.loads(json.dumps(doc))
        for entry in tampered["guarantees"]:
            assert entry["share"] == "14/1"
            entry["share"] = share
            entry["ratio"] = scale and rational_str(parse_rational(entry["bundle_value"]) * scale)
        report_path.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert run_cli("verify", str(report_path)) == 1
        assert capsys.readouterr().err == "recorded share for a0 is wrong\n"


def test_cli_verify_play_entry_without_target_is_input_error(tmp_path, capsys):
    report_path, doc = _play_report(tmp_path)
    del doc["guarantees"][0]["target_rho"]
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(report_path)) == 2
    assert capsys.readouterr().err == "error: bad guarantee entry: 'target_rho'\n"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({}, None),
        ({"agent_value": "99/1"}, "recorded agent value is wrong"),
        ({"reproduced": False}, "builtin run original_negative_k2 not reproduced"),
    ],
)
def test_cli_verify_checks_builtin_reports(tmp_path, capsys, changes, message):
    out = tmp_path / "neg.json"
    assert run_cli("play", "--builtin", "original-negative", "--k", "2", "-o", str(out)) == 0
    out.write_text(json.dumps({**json.loads(out.read_text()), **changes}))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == (1 if message else 0)
    assert capsys.readouterr().err == (message + "\n" if message else "")


@pytest.mark.parametrize(
    "argv, changes, message",
    [
        (("altruistic-negative", "--k", "2"),
         {"share": "100/1", "expected_value": "7/1", "share_kind": "aps"},
         "recorded expected value is wrong"),
        (("altruistic-negative", "--k", "2"), {"share": "100/1"}, "recorded share is wrong"),
        (("altruistic-negative", "--k", "2"), {"share_kind": "aps"}, "recorded share kind is wrong"),
        (("altruistic-negative", "--k", "2"), {"builtin": "original_negative_k2"},
         "recorded instance is wrong"),
        (("altruistic-negative", "--k", "2"), {"builtin": "altruistic_negative_k4"},
         "no builtin run altruistic_negative_k4 has 6 agents"),
        (("altruistic-negative", "--k", "2"), {"builtin": "altruistic_negative_k9"},
         "k > 6 rejected: the sequence grows doubly exponentially"),
        (("altruistic-negative", "--k", "2"), {"builtin": "pessimistic_negative_k2"},
         "no builtin run pessimistic_negative_k2 has 6 agents"),
        (("altruistic-negative", "--k", "2"), {"builtin": "altruistic_negative_k02"},
         "no builtin run altruistic_negative_k02 has 6 agents"),
        (("xos-hard", "--agents", "16", "--k", "2"), {"builtin": "xos_hard_n4096_k2"},
         "no builtin run xos_hard_n4096_k2 has 16 agents"),
        (("xos-hard", "--agents", "16", "--k", "2"), {"expected_value": "2/1"},
         "recorded expected value is wrong"),
    ],
)
def test_cli_verify_rebuilds_builtin_reports_from_their_name(tmp_path, capsys, argv, changes, message):
    out = tmp_path / "run.json"
    assert run_cli("play", "--builtin", *argv, "-o", str(out)) == 0
    assert run_cli("verify", str(out)) == 0
    out.write_text(json.dumps({**json.loads(out.read_text()), **changes}))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("proportional:rho=0", "rho must be positive"),
        ("proportional:share=-1", "share must be nonnegative"),
        ("altruistic:share=-1", "share must be nonnegative"),
        ("proportional:shrae=mms,rohh=1/9", "unknown parameter 'shrae' for strategy 'proportional'"),
        ("proportional:rho=1/3,rohh=1/9", "unknown parameter 'rohh' for strategy 'proportional'"),
        ("altruistic:rho=1/2", "unknown parameter 'rho' for strategy 'altruistic'"),
        ("random:amount=1", "unknown parameter 'amount' for strategy 'random'"),
        ("constant:seed=4", "unknown parameter 'seed' for strategy 'constant'"),
        ("greedy:seed=4", "unknown parameter 'seed' for strategy 'greedy'"),
        ("unit_demand:share=aps", "unknown parameter 'share' for strategy 'unit_demand'"),
        ("zero:amount=0", "unknown parameter 'amount' for strategy 'zero'"),
        ("proportional:share=aps,share=1/1000", "repeated parameter 'share' for strategy 'proportional'"),
        ("constant:amount=1,amount=0", "repeated parameter 'amount' for strategy 'constant'"),
    ],
)
def test_cli_out_of_range_strategy_parameters_are_input_errors(tmp_path, capsys, spec, message):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "2", "--agents", "2", "--items", "4", "-o", str(inst_path))
    capsys.readouterr()
    assert run_cli("play", str(inst_path), "--strategy", f"a0={spec}") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("target_rho, code", [("1/3", 0), ("100", 1)])
def test_cli_verify_fails_a_report_that_records_a_failure(tmp_path, capsys, target_rho, code):
    # a consistent report whose guarantee entries say "passed": false gets the
    # guarantee-failure code, as play itself did
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "2", "--agents", "2", "--items", "4", "-o", str(inst_path))
    assert run_cli("play", str(inst_path), "--report-shares", "aps", "--target-rho", target_rho,
                   "-o", str(report_path)) == code
    passed = [entry["passed"] for entry in json.loads(report_path.read_text())["guarantees"]]
    assert passed == [not code, not code]
    capsys.readouterr()
    assert run_cli("verify", str(report_path)) == code
    out, err = capsys.readouterr()
    assert (out, err) == (("report verified\n", "") if code == 0 else ("", "guarantee for a0 not met\n"))


@pytest.mark.parametrize(
    "target_rho, tamper",
    [
        pytest.param("100", lambda entries: [], id="failing-entries-dropped"),
        pytest.param("100", lambda entries: entries[1:], id="failing-entry-dropped"),
        pytest.param("1/3", lambda entries: entries + entries, id="doubled"),
        pytest.param("1/3", lambda entries: entries[::-1], id="reversed"),
    ],
)
def test_cli_verify_wants_one_play_entry_per_agent(tmp_path, capsys, target_rho, tamper):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "2", "--agents", "2", "--items", "4", "-o", str(inst_path))
    run_cli("play", str(inst_path), "--report-shares", "aps", "--target-rho", target_rho,
            "-o", str(report_path))
    doc = json.loads(report_path.read_text())
    doc["guarantees"] = tamper(doc["guarantees"])
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", str(report_path)) == 1
    assert capsys.readouterr().err == "recorded guarantees must hold one entry per agent, in id order\n"


@pytest.mark.parametrize(
    "path, value",
    [(("rounds",), {}), (("rounds", 0, "bids"), "1/2"), (("rounds", 0, "items"), {"e0": 1}),
     (("rounds", 0, "items"), "e0"), (("config",), []), (("config", "tie"), "x"),
     (("allocation",), []), (("agent_ids",), "a"), (("unallocated",), "e9"),
     (("allocation", "a"), "e0")],
)
def test_transcript_wrongly_typed_fields_are_parse_errors(path, value):
    inst = make_instance(["e0"], [("a", 1, AdditiveValuation({"e0": 1}))])
    _, transcript = run_game(inst, {"a": GreedyMarginalBidder(inst.valuation("a"))}, GameConfig())
    doc = transcript_to_dict(transcript)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ParseError, match=f"'{path[-1]}' must be"):
        transcript_from_dict(doc)


@pytest.mark.parametrize("bid, read", [(" 1/2 ", Fraction(1, 2)), ("2/4", Fraction(1, 2)), (3, Fraction(3))])
def test_transcript_bids_read_as_parse_rational_reads_them(bid, read):
    # the reader parses each distinct bid string once per document, yet every
    # spelling still reads as parse_rational reads it, repeated or not; the
    # spellings it rejects are among test_cli_verify_malformed_report_is_input_error's
    half = Fraction(1, 2)
    inst = make_instance(["e0", "e1"], [(a, half, AdditiveValuation({"e0": 1, "e1": 1})) for a in "ab"])
    _, transcript = run_game(inst, {a: GreedyMarginalBidder(inst.valuation(a)) for a in "ab"}, GameConfig())
    doc = transcript_to_dict(transcript)
    for r in doc["rounds"]:
        r["bids"] = {"a": bid, "b": bid}
        r["payment"] = bid
    back = transcript_from_dict(doc)
    assert [(r.bids, r.payment) for r in back.rounds] == [({"a": read, "b": read}, read)] * 2


def test_writing_an_unknown_valuation_kind_is_a_type_error():
    inst = make_instance(["e0"], [("a", 1, ScaledValuation(AdditiveValuation({"e0": 1}), 2))])
    with pytest.raises(TypeError, match="cannot serialize valuation of type ScaledValuation"):
        instance_to_dict(inst)


def test_cli_shares_additive_values_list_is_input_error(tmp_path, capsys):
    inst = make_instance(["e0", "e1"], [("a", 1, AdditiveValuation({"e0": 1, "e1": 2}))])
    doc = instance_to_dict(inst)
    doc["agents"][0]["valuation"]["values"] = []
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("shares", str(inst_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'values' must be an object, not list" in err


@pytest.mark.parametrize(
    "valuation, key, value",
    [
        (AdditiveValuation({"e0": 1}), "values", []),
        (UnitDemandValuation({"e0": 1}), "values", "1/1"),
        (XOSValuation([{"e0": 1}]), "clauses", {"e0": "1/1"}),
        (XOSValuation([{"e0": 1}]), "clauses", [["e0"]]),
        (RowSubstitutesValuation([["e0"]], [1]), "rows", {"e0": 0}),
        (RowSubstitutesValuation([["e0"]], [1]), "weights", "1/1"),
        (RowSubstitutesValuation([["e0"]], [1]), "rows", ["e0"]),  # not the items "e" and "0"
        (WeightedCoverageValuation({"u": 1}, {"e0": ["u"]}), "universe", ["u"]),
        (WeightedCoverageValuation({"u": 1}, {"e0": ["u"]}), "covers", [["u"]]),
        (WeightedCoverageValuation({"u1": 1}, {"e0": ["u1"]}), "covers", {"e0": "u1"}),
        (TableValuation(["e0"], {frozenset(): 0, frozenset(["e0"]): 1}), "values", [0, 1]),
        (TableValuation(["e0"], {frozenset(): 0, frozenset(["e0"]): 1}), "items", "e0"),
        (AdditiveValuation({"e0": 1}), None, []),
    ],
)
def test_valuation_wrongly_typed_fields_are_parse_errors(valuation, key, value):
    doc = instance_to_dict(make_instance(["e0"], [("a", 1, valuation)]))
    if key is None:
        doc["agents"][0]["valuation"] = value
    else:
        doc["agents"][0]["valuation"][key] = value
    with pytest.raises(ParseError, match="must be"):
        instance_from_dict(doc)


@st.composite
def _tables(draw):
    # ids with commas, the empty id and ids that are prefixes of each other
    items = draw(st.lists(st.text(alphabet=",ab", max_size=3), unique=True, max_size=3))
    table = {
        frozenset(c): draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        for size in range(len(items) + 1)
        for c in combinations(items, size)
    }
    return TableValuation(items, table)


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_table_round_trips_any_item_ids(valuation):
    inst = make_instance(valuation.items, [("a", 1, valuation)])
    doc = instance_to_dict(inst)
    back = instance_from_dict(loads(dumps(doc))).valuation("a")
    assert back.items == valuation.items and back.table == valuation.table
    assert dumps(instance_to_dict(make_instance(back.items, [("a", 1, back)]))) == dumps(doc)


def test_table_values_written_as_item_lists():
    v = TableValuation(["a,b", "c"], {frozenset(): 0, frozenset(["a,b"]): 1,
                                      frozenset(["c"]): 2, frozenset(["a,b", "c"]): 3})
    doc = instance_to_dict(make_instance(["a,b", "c"], [("x", 1, v)]))
    assert doc["agents"][0]["valuation"]["values"] == [
        [[], "0/1"], [["a,b"], "1/1"], [["a,b", "c"], "3/1"], [["c"], "2/1"]
    ]
    assert instance_from_dict(doc).valuation("x").table == v.table


def test_table_still_reads_comma_joined_values():
    doc = instance_to_dict(make_instance(["e0", "e1"], [("a", 1, AdditiveValuation({"e0": 1}))]))
    doc["agents"][0]["valuation"] = {
        "kind": "table",
        "items": ["e0", "e1"],
        "values": {"": "0/1", "e0": "1/2", "e1": "1/3", "e1,e0": "1/1"},
    }
    v = instance_from_dict(doc).valuation("a")
    assert v.table == {frozenset(): 0, frozenset(["e0"]): Fraction(1, 2),
                       frozenset(["e1"]): Fraction(1, 3), frozenset(["e0", "e1"]): 1}


@pytest.mark.parametrize(
    "values, message",
    [
        ([[[], "0"], [["x"], "1"], [["x", "y"], "2"]], r"no entry for \['y'\]"),
        ({"": "0", "x": "1", "y": "1"}, r"no entry for \['x', 'y'\]"),
        ([[[], "0"], [["x"], "1"], [["y"], "1"], [["x", "y"], "2"], [["z"], "1"]],
         r"outside the table: \['z'\]"),
        ([[[], "0"], [["x"], "1"], [["y"], "1"], [["y", "x"], "2"], [["x", "y"], "2"]],
         "two entries"),
        ([[[], "0"], [["x"]], [["y"], "1"], [["x", "y"], "2"]], r"\[items, value\] pair"),
        ([[[], "0"], ["x", "1"], [["y"], "1"], [["x", "y"], "2"]], "must be a list"),
        ("0", "must be a list"),
    ],
)
def test_incomplete_or_malformed_table_is_parse_error(values, message):
    doc = instance_to_dict(make_instance(["x", "y"], [("a", 1, AdditiveValuation({}))]))
    doc["agents"][0]["valuation"] = {"kind": "table", "items": ["x", "y"], "values": values}
    with pytest.raises(ParseError, match=message):
        instance_from_dict(doc)


def test_cli_shares_table_missing_a_subset_is_input_error(tmp_path, capsys):
    doc = instance_to_dict(make_instance(["x", "y"], [("a", 1, AdditiveValuation({}))]))
    doc["agents"][0]["valuation"] = {
        "kind": "table", "items": ["x", "y"], "values": [[[], "0"], [["x"], "1"], [["x", "y"], "2"]],
    }
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    assert run_cli("shares", str(inst_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "table valuation has no entry for ['y']" in err


def test_cli_table_not_covering_the_instance_is_input_error(tmp_path, capsys):
    doc = instance_to_dict(make_instance(["x", "y"], [("a", 1, AdditiveValuation({}))]))
    doc["agents"][0]["valuation"] = {
        "kind": "table", "items": ["x"], "values": [[[], "0"], [["x"], "1"]],
    }
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    for command in ("shares", "play"):
        assert run_cli(command, str(inst_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "table valuation of agent 'a' misses items ['y']" in err


def test_cli_unexpected_error_is_internal_exit_3(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "1", "--agents", "2", "--items", "4", "-o", str(inst_path))

    def broken(*args, **kwargs):
        raise KeyError("no such bundle")

    monkeypatch.setattr(cli, "aps_exact", broken)
    capsys.readouterr()
    assert run_cli("shares", str(inst_path)) == 3
    assert capsys.readouterr().err == "error: internal: KeyError: 'no such bundle'\n"


def test_cli_deterministic_output(tmp_path):
    paths = []
    for tag in ("one", "two"):
        inst_path = tmp_path / f"i-{tag}.json"
        rep_path = tmp_path / f"r-{tag}.json"
        run_cli("gen", "random", "--seed", "9", "--agents", "3", "--items", "5",
                "-o", str(inst_path))
        run_cli("play", str(inst_path), "--tiebreak", "seeded", "--seed", "4",
                "--strategy", "a1=random:seed=2", "--default-strategy", "greedy",
                "-o", str(rep_path))
        paths.append((inst_path.read_bytes(), rep_path.read_bytes()))
    assert paths[0] == paths[1]


def test_cli_shares_unit_demand_closed_form_agrees(tmp_path):
    from bidfair.serialize import instance_to_dict
    inst = make_instance(
        ["e1", "e2", "e3", "e4"],
        [
            ("p", Fraction(1, 3), UnitDemandValuation({"e1": 5, "e2": 4, "e3": 3, "e4": 2})),
            ("q", Fraction(2, 3), AdditiveValuation({"e1": 1})),
        ],
    )
    path = tmp_path / "ud.json"
    path.write_text(dumps(instance_to_dict(inst)))
    out = tmp_path / "shares.json"
    assert run_cli("shares", str(path), "--agent", "p", "--share", "aps", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    entry = doc["shares"][0]
    assert entry["aps"] == "3/1"
    assert entry["aps_closed_form"] == entry["aps"]


# SHA-256 of the documents `bidfair shares` and `bidfair lpcert` write,
# recorded while `shares` still called the oracles itself and wrote each
# rational through `rational_str`.  "random" is `gen random --seed 3 --agents 3
# --items 6 --entitlements random`; "unit-demand" is the instance above.
SHARES_LPCERT_DIGESTS = {
    ("random", "--share", "both"):
        "0299912700a9ded9550b685cb3c118600cf45d41c5f0aa3ddf7ddf0bba3360ee",
    ("random", "--share", "mms"):
        "87b693689da5809390d3e8304b413dbbc28b879f3a5f34ca2a5ffe669c3227d7",
    ("random", "--share", "aps", "--agent", "a1"):
        "82e7e7feb64bd852f04b837c4a0af7a991bce3ca971c749718f6bcb5cc90ea17",
    ("unit-demand", "--share", "both"):
        "d8f60cf183e8293d3711b955f7c024959b1875a086933a71566514217850e121",
    ("lpcert", "--z", "27/10", "--n", "inf"):
        "e48a88616c0ad0ba13167f0fd7e0a801c2ee20c6a0e2c357948d20d0c29c4d87",
    ("lpcert", "--z", "13/5", "--n", "100"):
        "5355ded2dd6b2eb44f415f2b8302c8832b3200e4866ba3e27c288c34a8d0f1ba",
}


@pytest.mark.parametrize("argv", list(SHARES_LPCERT_DIGESTS), ids=" ".join)
def test_cli_shares_and_lpcert_documents_are_pinned(tmp_path, argv):
    source, *options = argv
    if source == "lpcert":
        command = ["lpcert"]
    else:
        path = tmp_path / "inst.json"
        if source == "random":
            assert run_cli("gen", "random", "--seed", "3", "--agents", "3", "--items", "6",
                           "--entitlements", "random", "-o", str(path)) == 0
        else:
            inst = make_instance(
                ["e1", "e2", "e3", "e4"],
                [
                    ("p", Fraction(1, 3), UnitDemandValuation({"e1": 5, "e2": 4, "e3": 3, "e4": 2})),
                    ("q", Fraction(2, 3), AdditiveValuation({"e1": 1})),
                ],
            )
            path.write_text(dumps(instance_to_dict(inst)))
        command = ["shares", str(path)]
    out = tmp_path / "out.json"
    assert run_cli(*command, *options, "-o", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHARES_LPCERT_DIGESTS[argv]


def test_cli_shares_single_agent_instance(tmp_path):
    from bidfair.serialize import instance_to_dict
    inst = make_instance(["e1", "e2"], [("solo", 1, AdditiveValuation({"e1": 2, "e2": 5}))])
    path = tmp_path / "solo.json"
    path.write_text(dumps(instance_to_dict(inst)))
    out = tmp_path / "shares.json"
    assert run_cli("shares", str(path), "-o", str(out)) == 0
    entry = json.loads(out.read_text())["shares"][0]
    assert entry["mms"] == "7/1" and entry["aps"] == "7/1"


def test_cli_shares_of_staged_negative(tmp_path):
    inst_path = tmp_path / "neg.json"
    run_cli("gen", "altruistic-negative", "--k", "1", "-o", str(inst_path))
    out = tmp_path / "shares.json"
    assert run_cli("shares", str(inst_path), "--agent", "p", "-o", str(out)) == 0
    entry = json.loads(out.read_text())["shares"][0]
    assert entry["mms"] == "2/1"
    assert entry["aps"] == "2/1"


def test_cli_stdin_stdout_piping(tmp_path, capsys, monkeypatch):
    import io

    assert run_cli("gen", "random", "--seed", "3", "--agents", "2", "--items", "4") == 0
    text = capsys.readouterr().out
    instance_from_dict(loads(text))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run_cli("shares", "-", "--share", "mms") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["shares"]) == 2


def test_cli_argument_validation(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "1", "--agents", "2", "--items", "4", "-o", str(inst_path))
    # adversarial ties need a victim
    assert run_cli("play", str(inst_path), "--tiebreak", "adversarial") == 2
    # altruistic mode needs rho
    assert run_cli("play", str(inst_path), "--mode", "altruistic") == 2
    # unknown agent names are input errors
    assert run_cli("play", str(inst_path), "--strategy", "ghost=greedy") == 2
    assert run_cli("shares", str(inst_path), "--agent", "ghost") == 2
    capsys.readouterr()
    assert run_cli("play", str(inst_path), "--tiebreak", "adversarial", "--target", "nobody") == 2
    assert "no agent 'nobody' in this instance" in capsys.readouterr().err
    # verify holds a report's tie-break target to the same rule, whichever agent it named
    report_path = tmp_path / "report.json"
    run_cli("gen", "random", "--seed", "2", "--agents", "2", "--items", "4", "-o", str(inst_path))
    for target in ("a1", "a0"):
        assert run_cli("play", str(inst_path), "--tiebreak", "adversarial", "--target", target,
                       "-o", str(report_path)) == 0
        doc = json.loads(report_path.read_text())
        doc["transcript"]["config"]["tie"]["target"] = "nobody"
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("verify", str(report_path)) == 2
        assert capsys.readouterr().err == "error: no agent 'nobody' in this instance\n"


def test_cli_shares_has_no_size_option(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--seed", "1", "--agents", "2", "--items", "4", "-o", str(inst_path))
    with pytest.raises(SystemExit) as exc:
        run_cli("shares", str(inst_path), "--max-items", "3")
    assert exc.value.code == 2  # BIDFAIR_SIZE_GUARD is the guard's one setting
    assert "unrecognized arguments: --max-items" in capsys.readouterr().err
